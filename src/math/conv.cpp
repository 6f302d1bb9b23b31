#include "math/conv.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <numbers>
#include <string>
#include <tuple>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/workspace.hpp"

namespace lithogan::math {

// ---------------------------------------------------------------------------
// Shape helpers and im2col / col2im lowering primitives
// ---------------------------------------------------------------------------

std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t pad) {
  LITHOGAN_REQUIRE(in + 2 * pad >= kernel, "kernel larger than padded input");
  LITHOGAN_REQUIRE(stride >= 1, "stride must be >= 1");
  return (in + 2 * pad - kernel) / stride + 1;
}

std::size_t deconv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                            std::size_t pad, std::size_t output_pad) {
  LITHOGAN_REQUIRE(stride >= 1, "stride must be >= 1");
  LITHOGAN_REQUIRE(output_pad < stride, "output_pad must be < stride");
  const std::size_t grown = (in - 1) * stride + kernel + output_pad;
  LITHOGAN_REQUIRE(grown >= 2 * pad, "padding too large for deconv output");
  return grown - 2 * pad;
}

void im2col(const float* src, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* col) {
  const std::size_t out_h = conv_out_size(height, kernel, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel, stride, pad);
  const std::size_t plane = height * width;
  const std::size_t out_plane = out_h * out_w;

  // Row r of `col` corresponds to (channel c, kernel tap ky, kx); column is
  // the output position (oy, ox).
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* src_plane = src + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
        float* out_row = col + row * out_plane;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) {
            for (std::size_t ox = 0; ox < out_w; ++ox) out_row[oy * out_w + ox] = 0.0f;
            continue;
          }
          const float* src_row = src_plane + static_cast<std::size_t>(iy) * width;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                      static_cast<std::ptrdiff_t>(pad);
            out_row[oy * out_w + ox] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width))
                    ? 0.0f
                    : src_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void im2col_packed(const float* src, std::size_t channels, std::size_t height,
                   std::size_t width, std::size_t kernel, std::size_t stride,
                   std::size_t pad, float* packed) {
  const std::size_t out_h = conv_out_size(height, kernel, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel, stride, pad);
  const std::size_t plane = height * width;
  const std::size_t cols = out_h * out_w;               // GEMM n
  const std::size_t rows = channels * kernel * kernel;  // GEMM k
  const std::size_t nr = gemm_nr();
  const std::size_t tiles = (cols + nr - 1) / nr;

  // Ragged last tile: zero it once up front, then the main loops overwrite
  // the live columns and the padding columns stay zero.
  if (tiles * nr != cols) {
    float* tail = packed + (tiles - 1) * rows * nr;
    std::fill(tail, tail + rows * nr, 0.0f);
  }

  // Column q of the logical matrix lands in tile q / nr at lane q % nr;
  // logical row p sits at offset p * nr inside the tile (p-major panels).
  // q only ever increments by one, so the tile pointer and lane are carried
  // incrementally instead of divided out per element.
  const std::size_t tile_stride = rows * nr;
  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* src_plane = src + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
        float* dst = packed + row * nr;  // lane 0 of tile 0 for this row
        std::size_t lane = 0;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          const bool iy_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(height);
          const float* src_row =
              iy_ok ? src_plane + static_cast<std::size_t>(iy) * width : nullptr;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            float value = 0.0f;
            if (iy_ok) {
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (ix >= 0 && ix < static_cast<std::ptrdiff_t>(width)) {
                value = src_row[static_cast<std::size_t>(ix)];
              }
            }
            dst[lane] = value;
            if (++lane == nr) {
              lane = 0;
              dst += tile_stride;
            }
          }
        }
      }
    }
  }
}

void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* dst) {
  const std::size_t out_h = conv_out_size(height, kernel, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel, stride, pad);
  const std::size_t plane = height * width;
  const std::size_t out_plane = out_h * out_w;

  std::size_t row = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    float* dst_plane = dst + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, ++row) {
        const float* col_row = col + row * out_plane;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * stride + ky) -
                                    static_cast<std::ptrdiff_t>(pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(height)) continue;
          float* dst_row = dst_plane + static_cast<std::size_t>(iy) * width;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * stride + kx) -
                                      static_cast<std::ptrdiff_t>(pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(width)) continue;
            dst_row[static_cast<std::size_t>(ix)] += col_row[oy * out_w + ox];
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plan cache plumbing
// ---------------------------------------------------------------------------

namespace {

// Engine workspace slot layout (floats / complexes of the chunk's arena).
constexpr std::size_t kColSlot = 0;      // packed or row-major columns
constexpr std::size_t kGradColSlot = 1;  // backward gradient columns
constexpr std::size_t kFftInSlot = 0;    // per-channel input spectra
constexpr std::size_t kFftTmpSlot = 1;   // one-plane transform staging
constexpr std::size_t kFftAccSlot = 2;   // per-output-channel accumulator
constexpr std::size_t kFftWSlot = 3;     // raw-weights kernel spectra (caller ws)

obs::Counter& plan_hits() {
  static obs::Counter& c = obs::Registry::global().counter("conv.plan_cache.hit");
  return c;
}
obs::Counter& plan_misses() {
  static obs::Counter& c = obs::Registry::global().counter("conv.plan_cache.miss");
  return c;
}

void count_algo(ConvAlgo algo) {
  static obs::Counter& im2col_c = obs::Registry::global().counter("conv.algo.im2col");
  static obs::Counter& direct_c = obs::Registry::global().counter("conv.algo.direct");
  static obs::Counter& fft_c = obs::Registry::global().counter("conv.algo.fft");
  switch (algo) {
    case ConvAlgo::kIm2col:
      im2col_c.add();
      break;
    case ConvAlgo::kDirect:
      direct_c.add();
      break;
    case ConvAlgo::kFft:
      fft_c.add();
      break;
  }
}

bool is_deconv(ConvDir dir) {
  return dir == ConvDir::kDeconvForward || dir == ConvDir::kDeconvBackward;
}

/// Geometry+direction part of the key — the inputs algorithm selection is
/// allowed to see. `prepacked` and `threads` are deliberately absent so
/// the serving plan and the eval-forward plan of the same layer always
/// agree on the algorithm (bit-identity between the two paths).
using GeomKey = std::tuple<std::uint8_t, std::size_t, std::size_t, std::size_t,
                           std::size_t, std::size_t, std::size_t, std::size_t,
                           std::size_t, std::size_t>;

GeomKey geom_key(const ConvKey& k) {
  return {static_cast<std::uint8_t>(k.dir),
          k.in_c,
          k.in_h,
          k.in_w,
          k.out_c,
          k.kernel,
          k.stride,
          k.pad,
          k.dilation,
          k.output_pad};
}

/// Full cache key: geometry plus packing regime, thread budget and the
/// forced-algorithm slot (-1 = cost-model / env selection).
using CacheKey = std::tuple<GeomKey, bool, std::size_t, int>;

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

std::map<CacheKey, std::shared_ptr<const ConvPlan>>& plan_map() {
  static std::map<CacheKey, std::shared_ptr<const ConvPlan>> m;
  return m;
}

/// Power-of-two spectral grid for the FFT algorithm. Exactness needs
/// P >= in + 2*pad (the padded input embeds without wraparound; see the
/// kernel-flip derivation at run_fft_forward).
std::size_t fft_grid(std::size_t in, std::size_t pad) {
  return next_power_of_two(in + 2 * pad);
}

bool parse_algo(const char* name, ConvAlgo& out) {
  if (name == nullptr) return false;
  const std::string s(name);
  if (s == "im2col") {
    out = ConvAlgo::kIm2col;
    return true;
  }
  if (s == "direct") {
    out = ConvAlgo::kDirect;
    return true;
  }
  if (s == "fft") {
    out = ConvAlgo::kFft;
    return true;
  }
  return false;
}

/// Scalar activation, formula-for-formula the GEMM epilogue's apply_act
/// (and nn/activations), so the non-GEMM writebacks round identically to
/// a fused epilogue on the same accumulator value.
inline float eval_act(Activation act, float v, float slope) {
  switch (act) {
    case Activation::kRelu:
      return v < 0.0f ? 0.0f : v;
    case Activation::kLeakyRelu:
      return v < 0.0f ? v * slope : v;
    case Activation::kTanh:
      return std::tanh(v);
    case Activation::kSigmoid:
      return 1.0f / (1.0f + std::exp(-v));
    case Activation::kIdentity:
      break;
  }
  return v;
}

std::size_t log2_floor(std::size_t n) {
  std::size_t l = 0;
  while ((std::size_t{1} << (l + 1)) <= n) ++l;
  return l;
}

/// Analytic per-sample cost model in scalar-op units. Inputs are geometry
/// and direction only — never the packing regime or thread budget — so the
/// chosen algorithm is a pure function of the layer shape.
void score_candidates(ConvPlan& plan) {
  const ConvKey& k = plan.key;
  const double rows = static_cast<double>(plan.rows);
  const double cols = static_cast<double>(plan.cols);
  const double macs =
      2.0 * static_cast<double>(is_deconv(k.dir) ? k.in_c : k.out_c) * rows * cols;
  // im2col: the GEMM plus ~4 ops/element of column-matrix traffic (the
  // bounds-checked gather write and the packed read-back).
  const double lower = 4.0 * rows * cols;

  plan.cost_im2col = macs + lower;
  plan.cost_direct = 0.0;
  plan.cost_fft = 0.0;
  for (const ConvAlgo algo : conv_algo_candidates(k)) {
    if (algo == ConvAlgo::kDirect) {
      if (k.kernel == 1 && k.pad == 0) {
        // The column matrix IS the input: the same GEMM minus the lowering.
        plan.cost_direct = macs;
      } else {
        // Tap loop: every MAC but at lower kernel efficiency than the
        // register-blocked packed GEMM (measured ~1.35x per MAC against the
        // AVX-512 kernel), plus the zero-fill/epilogue stream of the
        // output. Against im2col's lowering overhead this puts the
        // crossover near out_c <= 5, matching measurement on the native
        // build: direct wins 2-7x at out_c <= 4 and loses ~10% by
        // out_c = 8.
        plan.cost_direct = 1.35 * macs + 2.0 * static_cast<double>(k.out_c) * cols;
      }
    } else if (algo == ConvAlgo::kFft) {
      const double p2 = static_cast<double>(plan.fft_h * plan.fft_w);
      // One 2-D FFT = 5 N log2 N per axis pass over the grid.
      const double f2 =
          5.0 * p2 *
          static_cast<double>(log2_floor(plan.fft_h) + log2_floor(plan.fft_w));
      const double ic = static_cast<double>(k.in_c);
      const double oc = static_cast<double>(k.out_c);
      // in_c forward + out_c inverse + in_c*out_c kernel transforms (always
      // charged, keeping the score prepacked-independent), plus the
      // spectral multiply-accumulate; x4 for double-complex arithmetic.
      plan.cost_fft = 4.0 * ((ic + oc + ic * oc) * f2 + 6.0 * ic * oc * p2);
    }
  }
}

ConvAlgo model_choice(const ConvPlan& plan, const std::vector<ConvAlgo>& candidates) {
  ConvAlgo best = ConvAlgo::kIm2col;
  double best_cost = plan.cost_im2col;
  for (const ConvAlgo algo : candidates) {
    const double cost = algo == ConvAlgo::kIm2col   ? plan.cost_im2col
                        : algo == ConvAlgo::kDirect ? plan.cost_direct
                                                    : plan.cost_fft;
    // Strict < keeps ties on the lowest enum value (im2col, today's path).
    if (cost < best_cost) {
      best = algo;
      best_cost = cost;
    }
  }
  return best;
}

/// One axis of the deconv col2im-gather table: for each output coordinate
/// o, the taps (k, i) satisfying o = i*stride + k - pad with 0 <= i <
/// in_dim, stored as column-matrix offsets k*k_step + i*i_step in
/// ascending k — the order col2im's scatter visits them. Valid k for a
/// fixed o are spaced exactly `stride` apart, so each coordinate has at
/// most ceil(kernel / stride) taps; that bound is the table row stride and
/// the return value.
std::size_t build_gather_axis(std::size_t out_dim, std::size_t in_dim,
                              std::size_t kernel, std::size_t stride, std::size_t pad,
                              std::size_t k_step, std::size_t i_step,
                              std::vector<std::uint32_t>& taps,
                              std::vector<std::uint8_t>& counts) {
  const std::size_t max_taps = (kernel + stride - 1) / stride;
  taps.assign(out_dim * max_taps, 0);
  counts.assign(out_dim, 0);
  for (std::size_t o = 0; o < out_dim; ++o) {
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < kernel; ++k) {
      if (o + pad < k) continue;
      const std::size_t num = o + pad - k;
      if (num % stride != 0) continue;
      const std::size_t i = num / stride;
      if (i >= in_dim) continue;
      taps[o * max_taps + cnt++] = static_cast<std::uint32_t>(k * k_step + i * i_step);
    }
    counts[o] = static_cast<std::uint8_t>(cnt);
  }
  return max_taps;
}

std::shared_ptr<ConvPlan> make_plan(const ConvKey& key) {
  LITHOGAN_REQUIRE(key.dilation == 1, "conv engine supports dilation 1 only");
  LITHOGAN_REQUIRE(key.in_c > 0 && key.out_c > 0 && key.kernel > 0,
                   "conv plan: empty geometry");
  auto plan = std::make_shared<ConvPlan>();
  plan->key = key;
  plan->key.threads = std::max<std::size_t>(1, key.threads);
  if (is_deconv(key.dir)) {
    plan->out_h = deconv_out_size(key.in_h, key.kernel, key.stride, key.pad,
                                  key.output_pad);
    plan->out_w = deconv_out_size(key.in_w, key.kernel, key.stride, key.pad,
                                  key.output_pad);
    // The transposed conv is the adjoint of a conv with identical geometry
    // mapping the (out_h, out_w) grid down to (in_h, in_w).
    LITHOGAN_REQUIRE(
        conv_out_size(plan->out_h, key.kernel, key.stride, key.pad) == key.in_h &&
            conv_out_size(plan->out_w, key.kernel, key.stride, key.pad) == key.in_w,
        "conv plan: inconsistent deconv geometry");
    plan->rows = key.out_c * key.kernel * key.kernel;
    plan->cols = key.in_h * key.in_w;
  } else {
    LITHOGAN_REQUIRE(key.output_pad == 0, "conv plan: output_pad on a conv direction");
    plan->out_h = conv_out_size(key.in_h, key.kernel, key.stride, key.pad);
    plan->out_w = conv_out_size(key.in_w, key.kernel, key.stride, key.pad);
    plan->rows = key.in_c * key.kernel * key.kernel;
    plan->cols = plan->out_h * plan->out_w;
  }
  plan->fft_h = fft_grid(key.in_h, key.pad);
  plan->fft_w = fft_grid(key.in_w, key.pad);
  score_candidates(*plan);
  if (key.dir == ConvDir::kDeconvForward) {
    const std::size_t in_plane = key.in_h * key.in_w;
    plan->gather_ty =
        build_gather_axis(plan->out_h, key.in_h, key.kernel, key.stride, key.pad,
                          key.kernel * in_plane, key.in_w, plan->gather_y,
                          plan->gather_ycnt);
    plan->gather_tx = build_gather_axis(plan->out_w, key.in_w, key.kernel, key.stride,
                                        key.pad, in_plane, 1, plan->gather_x,
                                        plan->gather_xcnt);
  }
  return plan;
}

/// Resolves the algorithm for a default (non-forced) plan: the
/// LITHOGAN_CONV_ALGO override when it names a candidate, else the
/// deterministic cost model.
ConvAlgo choose_algo(const ConvPlan& plan, const std::vector<ConvAlgo>& candidates) {
  ConvAlgo forced;
  if (parse_algo(std::getenv("LITHOGAN_CONV_ALGO"), forced) &&
      std::find(candidates.begin(), candidates.end(), forced) != candidates.end()) {
    return forced;
  }
  return model_choice(plan, candidates);
}

}  // namespace

const char* conv_algo_name(ConvAlgo algo) {
  switch (algo) {
    case ConvAlgo::kIm2col:
      return "im2col";
    case ConvAlgo::kDirect:
      return "direct";
    case ConvAlgo::kFft:
      return "fft";
  }
  return "?";
}

std::vector<ConvAlgo> conv_algo_candidates(const ConvKey& key) {
  std::vector<ConvAlgo> out{ConvAlgo::kIm2col};
  if (key.dilation != 1) return out;
  switch (key.dir) {
    case ConvDir::kForward: {
      if (key.stride == 1) out.push_back(ConvAlgo::kDirect);
      const std::size_t p2 = fft_grid(key.in_h, key.pad) * fft_grid(key.in_w, key.pad);
      // Cap the spectral working set: per-plane grid and the full kernel-
      // spectra block (16 bytes per complex) must stay sane.
      if (key.kernel >= 2 && p2 <= (std::size_t{1} << 22) &&
          key.in_c * key.out_c * p2 <= (std::size_t{1} << 23)) {
        out.push_back(ConvAlgo::kFft);
      }
      break;
    }
    case ConvDir::kBwdData:
    case ConvDir::kBwdWeight:
      if (key.kernel == 1 && key.stride == 1 && key.pad == 0) {
        out.push_back(ConvAlgo::kDirect);
      }
      break;
    case ConvDir::kDeconvForward:
    case ConvDir::kDeconvBackward:
      break;
  }
  return out;
}

std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key) {
  const std::lock_guard<std::mutex> lock(cache_mutex());
  auto& slot = plan_map()[{geom_key(key), key.prepacked,
                           std::max<std::size_t>(1, key.threads), -1}];
  if (slot) {
    plan_hits().add();
    return slot;
  }
  plan_misses().add();
  auto plan = make_plan(key);
  plan->algo = choose_algo(*plan, conv_algo_candidates(key));
  slot = std::move(plan);
  return slot;
}

std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key, ConvAlgo algo) {
  const auto candidates = conv_algo_candidates(key);
  LITHOGAN_REQUIRE(
      std::find(candidates.begin(), candidates.end(), algo) != candidates.end(),
      std::string("conv plan: algorithm ") + conv_algo_name(algo) +
          " cannot execute this key");
  const std::lock_guard<std::mutex> lock(cache_mutex());
  auto& slot = plan_map()[{geom_key(key), key.prepacked,
                           std::max<std::size_t>(1, key.threads),
                           static_cast<int>(algo)}];
  if (slot) {
    plan_hits().add();
    return slot;
  }
  plan_misses().add();
  auto plan = make_plan(key);
  plan->algo = algo;
  slot = std::move(plan);
  return slot;
}

// ---------------------------------------------------------------------------
// Weight packing
// ---------------------------------------------------------------------------

namespace {

/// Embeds one flipped k x k kernel tap grid into the zeroed spectral grid
/// and transforms it: kerflip[(P-ky)%P][(P-kx)%P] = w[ky][kx], which turns
/// the circular convolution theorem into exactly the cross-correlation the
/// conv layers compute (see run_fft_forward).
void kernel_spectrum(const float* w_taps, std::size_t kernel, std::size_t p_h,
                     std::size_t p_w, std::vector<Complex>& tmp, Complex* out) {
  std::fill(tmp.begin(), tmp.end(), Complex{});
  for (std::size_t ky = 0; ky < kernel; ++ky) {
    for (std::size_t kx = 0; kx < kernel; ++kx) {
      const std::size_t iy = (p_h - ky) % p_h;
      const std::size_t ix = (p_w - kx) % p_w;
      tmp[iy * p_w + ix] = static_cast<double>(w_taps[ky * kernel + kx]);
    }
  }
  fft2d(tmp, p_h, p_w, /*inverse=*/false, nullptr);
  std::copy(tmp.begin(), tmp.end(), out);
}

void fill_fft_weight_spectra(const ConvPlan& plan, const float* weights,
                             std::vector<Complex>& spectra) {
  const ConvKey& k = plan.key;
  const std::size_t p2 = plan.fft_h * plan.fft_w;
  const std::size_t kk = k.kernel * k.kernel;
  spectra.resize(k.out_c * k.in_c * p2);
  std::vector<Complex> tmp(p2);
  for (std::size_t oc = 0; oc < k.out_c; ++oc) {
    for (std::size_t ic = 0; ic < k.in_c; ++ic) {
      kernel_spectrum(weights + (oc * k.in_c + ic) * kk, k.kernel, plan.fft_h,
                      plan.fft_w, tmp, spectra.data() + (oc * k.in_c + ic) * p2);
    }
  }
}

}  // namespace

PackedConvWeights pack_conv_weights(const ConvPlan& plan, const float* weights) {
  const ConvKey& k = plan.key;
  PackedConvWeights out;
  if (k.dir == ConvDir::kDeconvForward) {
    // Deconv GEMM is Col = W^T X with W (in_c, out_c*k*k): pack as the
    // transposed A operand.
    out.panels.resize(packed_a_size(plan.rows, k.in_c));
    pack_a_t(plan.rows, k.in_c, weights, out.panels.data());
    return out;
  }
  LITHOGAN_REQUIRE(k.dir == ConvDir::kForward,
                   "pack_conv_weights: only forward plans are prepacked");
  switch (plan.algo) {
    case ConvAlgo::kIm2col:
      out.panels.resize(packed_a_size(k.out_c, plan.rows));
      pack_a(k.out_c, plan.rows, weights, out.panels.data());
      break;
    case ConvAlgo::kDirect:
      if (k.kernel == 1 && k.pad == 0) {
        out.panels.resize(packed_a_size(k.out_c, k.in_c));
        pack_a(k.out_c, k.in_c, weights, out.panels.data());
      } else {
        // The tap loop reads raw row-major weights; "packing" is a copy so
        // the plan owns a stable snapshot like every other layout.
        out.panels.assign(weights, weights + k.out_c * plan.rows);
      }
      break;
    case ConvAlgo::kFft:
      fill_fft_weight_spectra(plan, weights, out.spectra);
      break;
  }
  return out;
}

std::size_t PackedConvWeights::weight_bytes() const {
  return panels.size() * sizeof(float) + spectra.size() * sizeof(Complex);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

namespace {

/// im2col-packed GEMM forward for samples [n0, n1).
void run_im2col_forward(const ConvPlan& plan, const float* src, const float* weights,
                        const PackedConvWeights* packed, const Epilogue& epi,
                        float* dst, std::size_t n0, std::size_t n1,
                        util::ExecContext* inner, util::Workspace& ws) {
  const ConvKey& k = plan.key;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;
  auto& col = ws.floats(kColSlot);
  col.resize(packed_b_size(plan.cols, plan.rows));
  for (std::size_t n = n0; n < n1; ++n) {
    im2col_packed(src + n * in_elems, k.in_c, k.in_h, k.in_w, k.kernel, k.stride,
                  k.pad, col.data());
    if (packed != nullptr) {
      gemm_prepacked_pb(k.out_c, plan.cols, plan.rows, 1.0f, packed->panels.data(),
                        col.data(), 0.0f, dst + n * out_elems, epi, inner);
    } else {
      gemm_packed(k.out_c, plan.cols, plan.rows, 1.0f, weights, col.data(), 0.0f,
                  dst + n * out_elems, epi, inner);
    }
  }
}

/// Direct forward. 1x1/s1/p0 runs as a plain GEMM on the input (the column
/// matrix IS the input); other stride-1 shapes run the tap loop, output
/// channels fanned out over `inner` (disjoint planes, fixed accumulation
/// order per pixel, so bit-identical at any thread count).
void run_direct_forward(const ConvPlan& plan, const float* src, const float* weights,
                        const PackedConvWeights* packed, const Epilogue& epi,
                        float* dst, std::size_t n0, std::size_t n1,
                        util::ExecContext* inner, util::Workspace& ws) {
  const ConvKey& k = plan.key;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;
  if (k.kernel == 1 && k.pad == 0) {
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = src + n * in_elems;
      float* y = dst + n * out_elems;
      if (packed != nullptr) {
        gemm_prepacked(k.out_c, plan.cols, k.in_c, 1.0f, packed->panels.data(), x,
                       0.0f, y, epi, inner);
      } else {
        gemm(k.out_c, plan.cols, k.in_c, 1.0f, weights, x, 0.0f, y, inner);
        apply_epilogue(k.out_c, plan.cols, y, epi);
      }
    }
    return;
  }
  const float* w = packed != nullptr ? packed->panels.data() : weights;
  const std::size_t kk = k.kernel * k.kernel;
  const std::size_t in_plane = k.in_h * k.in_w;
  const auto sp = static_cast<std::ptrdiff_t>(k.pad);
  for (std::size_t n = n0; n < n1; ++n) {
    const float* x = src + n * in_elems;
    float* y = dst + n * out_elems;
    auto channel_range = [&](std::size_t oc0, std::size_t oc1, util::Workspace&) {
      for (std::size_t oc = oc0; oc < oc1; ++oc) {
        float* yplane = y + oc * plan.cols;
        const float* wbase = w + oc * plan.rows;
        for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
          float* yrow = yplane + oy * plan.out_w;
          std::fill(yrow, yrow + plan.out_w, 0.0f);
          for (std::size_t ic = 0; ic < k.in_c; ++ic) {
            for (std::size_t ky = 0; ky < k.kernel; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy + ky) - sp;  // stride == 1
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(k.in_h)) continue;
              const float* xrow =
                  x + ic * in_plane + static_cast<std::size_t>(iy) * k.in_w;
              const float* wrow = wbase + ic * kk + ky * k.kernel;
              for (std::size_t kx = 0; kx < k.kernel; ++kx) {
                const float wv = wrow[kx];
                const std::size_t ox0 = k.pad > kx ? k.pad - kx : 0;
                const std::size_t ox1 =
                    std::min(plan.out_w, k.in_w + k.pad - kx);
                const float* xs = xrow + (ox0 + kx) - k.pad;
                for (std::size_t ox = ox0; ox < ox1; ++ox) {
                  yrow[ox] += wv * xs[ox - ox0];
                }
              }
            }
          }
          if (!epi.trivial()) {
            const float b = epi.bias != nullptr ? epi.bias[oc] : 0.0f;
            for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
              yrow[ox] = eval_act(epi.act, yrow[ox] + b, epi.slope);
            }
          }
        }
      }
    };
    util::parallel_for(inner, ws, 0, k.out_c, 1,
                       2 * k.out_c * plan.rows * plan.cols, channel_range);
  }
}

/// Spectral forward for samples [n0, n1). `spectra` holds the flipped-
/// kernel transforms, (oc, ic)-major, fft_h*fft_w each.
void run_fft_forward(const ConvPlan& plan, const float* src, const Complex* spectra,
                     const Epilogue& epi, float* dst, std::size_t n0, std::size_t n1,
                     util::ExecContext* inner, util::Workspace& ws) {
  const ConvKey& k = plan.key;
  const std::size_t p_h = plan.fft_h;
  const std::size_t p_w = plan.fft_w;
  const std::size_t p2 = p_h * p_w;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;
  auto& xs = ws.complexes(kFftInSlot);
  auto& tmp = ws.complexes(kFftTmpSlot);
  auto& acc = ws.complexes(kFftAccSlot);
  xs.resize(k.in_c * p2);
  tmp.resize(p2);
  acc.resize(p2);
  for (std::size_t n = n0; n < n1; ++n) {
    const float* x = src + n * in_elems;
    // Input spectra: each plane embedded at (pad, pad) in the zeroed grid.
    // With P >= in + 2*pad, the circular convolution with the flipped
    // kernel sampled at (oy*stride, ox*stride) reproduces the zero-padded
    // cross-correlation exactly (no wraparound reaches a sampled output).
    for (std::size_t ic = 0; ic < k.in_c; ++ic) {
      std::fill(tmp.begin(), tmp.end(), Complex{});
      const float* plane = x + ic * k.in_h * k.in_w;
      for (std::size_t iy = 0; iy < k.in_h; ++iy) {
        Complex* row = tmp.data() + (iy + k.pad) * p_w + k.pad;
        const float* srow = plane + iy * k.in_w;
        for (std::size_t ix = 0; ix < k.in_w; ++ix) {
          row[ix] = static_cast<double>(srow[ix]);
        }
      }
      fft2d(tmp, p_h, p_w, /*inverse=*/false, inner);
      std::copy(tmp.begin(), tmp.end(), xs.begin() + ic * p2);
    }
    for (std::size_t oc = 0; oc < k.out_c; ++oc) {
      const Complex* wsp = spectra + oc * k.in_c * p2;
      const Complex* x0 = xs.data();
      for (std::size_t i = 0; i < p2; ++i) acc[i] = x0[i] * wsp[i];
      for (std::size_t ic = 1; ic < k.in_c; ++ic) {
        const Complex* xi = xs.data() + ic * p2;
        const Complex* wi = wsp + ic * p2;
        for (std::size_t i = 0; i < p2; ++i) acc[i] += xi[i] * wi[i];
      }
      fft2d(acc, p_h, p_w, /*inverse=*/true, inner);
      const float b = epi.bias != nullptr ? epi.bias[oc] : 0.0f;
      float* yplane = dst + n * out_elems + oc * plan.cols;
      for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
        const Complex* crow = acc.data() + oy * k.stride * p_w;
        float* yrow = yplane + oy * plan.out_w;
        for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
          const auto v = static_cast<float>(crow[ox * k.stride].real());
          yrow[ox] = eval_act(epi.act, v + b, epi.slope);
        }
      }
    }
  }
}

}  // namespace

void conv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                    const float* weights, const PackedConvWeights* packed,
                    const Epilogue& epi, float* dst, util::ExecContext* exec,
                    util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kForward,
                   "conv2d_forward: plan direction mismatch");
  LITHOGAN_REQUIRE(epi.bias == nullptr || epi.bias_per_row,
                   "conv2d_forward: conv bias is per output channel");
  count_algo(plan.algo);
  const ConvKey& k = plan.key;

  // FFT kernel spectra for the raw-weights (training) path: weight-only,
  // so computed once per call on the calling thread; batch chunks read the
  // finished table.
  const Complex* spectra = nullptr;
  if (plan.algo == ConvAlgo::kFft) {
    if (packed != nullptr) {
      spectra = packed->spectra.data();
    } else {
      auto& wsp = serial_ws.complexes(kFftWSlot);
      fill_fft_weight_spectra(plan, weights, wsp);
      spectra = wsp.data();
    }
  }

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    switch (plan.algo) {
      case ConvAlgo::kIm2col:
        run_im2col_forward(plan, src, weights, packed, epi, dst, n0, n1, inner, ws);
        break;
      case ConvAlgo::kDirect:
        run_direct_forward(plan, src, weights, packed, epi, dst, n0, n1, inner, ws);
        break;
      case ConvAlgo::kFft:
        run_fft_forward(plan, src, spectra, epi, dst, n0, n1, inner, ws);
        break;
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 2 * k.out_c * plan.rows * plan.cols, sample);
}

void conv2d_backward(const ConvPlan& data_plan, const ConvPlan& weight_plan,
                     std::size_t batch, const float* input, const float* grad_output,
                     const float* weights, float* grad_input, float* wgrad_partials,
                     float* bgrad_partials, util::ExecContext* exec,
                     util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(data_plan.key.dir == ConvDir::kBwdData &&
                       weight_plan.key.dir == ConvDir::kBwdWeight,
                   "conv2d_backward: plan direction mismatch");
  count_algo(data_plan.algo);
  count_algo(weight_plan.algo);
  const ConvKey& k = data_plan.key;
  const std::size_t rows = data_plan.rows;
  const std::size_t cols = data_plan.cols;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * cols;
  const std::size_t wgrad_size = k.out_c * rows;

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& col = ws.floats(kColSlot);
    auto& grad_col = ws.floats(kGradColSlot);
    if (weight_plan.algo == ConvAlgo::kIm2col) col.resize(rows * cols);
    if (data_plan.algo == ConvAlgo::kIm2col) grad_col.resize(rows * cols);
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = input + n * in_elems;
      const float* gy = grad_output + n * out_elems;
      float* gx = grad_input + n * in_elems;

      // Weight gradient partial: dW_n = dY_n * Col_n^T. For 1x1/s1/p0 the
      // column matrix is the input itself, so the lowering is skipped; the
      // GEMM sees the same logical operands either way (bit-identical).
      if (weight_plan.algo == ConvAlgo::kDirect) {
        gemm_bt(k.out_c, rows, cols, 1.0f, gy, x, 0.0f,
                wgrad_partials + n * wgrad_size, inner);
      } else {
        im2col(x, k.in_c, k.in_h, k.in_w, k.kernel, k.stride, k.pad, col.data());
        gemm_bt(k.out_c, rows, cols, 1.0f, gy, col.data(), 0.0f,
                wgrad_partials + n * wgrad_size, inner);
      }

      // Bias gradient partial: channel-wise sums of dY_n.
      for (std::size_t oc = 0; oc < k.out_c; ++oc) {
        const float* plane = gy + oc * cols;
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols; ++i) acc += plane[i];
        bgrad_partials[n * k.out_c + oc] = acc;
      }

      // Data gradient: dCol = W^T * dY, then scatter back (for 1x1 the
      // scatter is the identity copy, so the GEMM writes gx directly).
      if (data_plan.algo == ConvAlgo::kDirect) {
        gemm_at(rows, cols, k.out_c, 1.0f, weights, gy, 0.0f, gx, inner);
      } else {
        gemm_at(rows, cols, k.out_c, 1.0f, weights, gy, 0.0f, grad_col.data(),
                inner);
        std::fill(gx, gx + in_elems, 0.0f);
        col2im(grad_col.data(), k.in_c, k.in_h, k.in_w, k.kernel, k.stride, k.pad,
               gx);
      }
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 4 * k.out_c * rows * cols, sample);
}

void deconv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                      const float* weights, const PackedConvWeights* packed,
                      const Epilogue& epi, float* dst, util::ExecContext* exec,
                      util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kDeconvForward,
                   "deconv2d_forward: plan direction mismatch");
  LITHOGAN_REQUIRE(epi.bias == nullptr || epi.bias_per_row,
                   "deconv2d_forward: deconv bias is per output channel");
  count_algo(plan.algo);
  const ConvKey& k = plan.key;
  const std::size_t rows = plan.rows;
  const std::size_t cols = plan.cols;
  const std::size_t out_plane = plan.out_h * plan.out_w;
  const std::size_t in_elems = k.in_c * cols;
  const std::size_t out_elems = k.out_c * out_plane;
  const std::size_t kk = k.kernel * k.kernel;

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& col = ws.floats(kColSlot);
    col.resize(rows * cols);
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = src + n * in_elems;
      float* y = dst + n * out_elems;
      // Col = W^T * X...
      if (packed != nullptr) {
        gemm_prepacked(rows, cols, k.in_c, 1.0f, packed->panels.data(), x, 0.0f,
                       col.data(), {}, inner);
      } else {
        gemm_at(rows, cols, k.in_c, 1.0f, weights, x, 0.0f, col.data(), inner);
      }
      // ...then gather each output pixel's taps from col (plan tables).
      // Taps are visited ascending in (ky, kx) — exactly the order
      // col2im's scatter adds them — and bias lands after the full
      // accumulation, so this writeback is bit-identical to memset +
      // scatter + bias/activation sweep while streaming the output once.
      for (std::size_t oc = 0; oc < k.out_c; ++oc) {
        const float* cbase = col.data() + oc * kk * cols;
        const float b = epi.bias != nullptr ? epi.bias[oc] : 0.0f;
        float* yplane = y + oc * out_plane;
        for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
          const std::uint32_t* ty = plan.gather_y.data() + oy * plan.gather_ty;
          const std::size_t nty = plan.gather_ycnt[oy];
          float* yrow = yplane + oy * plan.out_w;
          for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
            const std::uint32_t* tx = plan.gather_x.data() + ox * plan.gather_tx;
            const std::size_t ntx = plan.gather_xcnt[ox];
            float acc = 0.0f;
            for (std::size_t a = 0; a < nty; ++a) {
              const float* r = cbase + ty[a];
              for (std::size_t c = 0; c < ntx; ++c) acc += r[tx[c]];
            }
            yrow[ox] = eval_act(epi.act, acc + b, epi.slope);
          }
        }
      }
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 2 * k.in_c * rows * cols, sample);
}

void deconv2d_backward(const ConvPlan& plan, std::size_t batch, const float* input,
                       const float* grad_output, const float* weights,
                       float* grad_input, float* wgrad_partials, float* bgrad_partials,
                       util::ExecContext* exec, util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kDeconvBackward,
                   "deconv2d_backward: plan direction mismatch");
  count_algo(plan.algo);
  const ConvKey& k = plan.key;
  const std::size_t rows = plan.rows;
  const std::size_t cols = plan.cols;
  const std::size_t out_plane = plan.out_h * plan.out_w;
  const std::size_t in_elems = k.in_c * cols;
  const std::size_t out_elems = k.out_c * out_plane;
  const std::size_t wgrad_size = k.in_c * rows;

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& grad_col = ws.floats(kGradColSlot);
    grad_col.resize(rows * cols);
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = input + n * in_elems;
      const float* gy = grad_output + n * out_elems;
      float* gx = grad_input + n * in_elems;

      // Gather the output gradient into column form (the adjoint of the
      // forward writeback), then one GEMM each for data and weight
      // gradients.
      im2col(gy, k.out_c, plan.out_h, plan.out_w, k.kernel, k.stride, k.pad,
             grad_col.data());
      gemm(k.in_c, cols, rows, 1.0f, weights, grad_col.data(), 0.0f, gx, inner);
      gemm_bt(k.in_c, rows, cols, 1.0f, x, grad_col.data(), 0.0f,
              wgrad_partials + n * wgrad_size, inner);

      for (std::size_t oc = 0; oc < k.out_c; ++oc) {
        const float* plane = gy + oc * out_plane;
        float acc = 0.0f;
        for (std::size_t i = 0; i < out_plane; ++i) acc += plane[i];
        bgrad_partials[n * k.out_c + oc] = acc;
      }
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 4 * k.in_c * rows * cols, sample);
}

// ---------------------------------------------------------------------------
// Gaussian blur (litho resist diffusion)
// ---------------------------------------------------------------------------

namespace {

/// Cached spectral attenuation table exp(-2 pi^2 sigma^2 |f|^2) on an n x n
/// grid (the band grid for a band blur). Keyed on n and the exact double
/// bits of sigma and pixel size; elements are computed
/// with the same expression the historical litho loop evaluated per call,
/// so multiplying by the table is byte-identical to recomputing.
using BlurKey = std::tuple<std::size_t, std::uint64_t, std::uint64_t>;

std::shared_ptr<const std::vector<double>> blur_table(std::size_t n, double sigma_nm,
                                                      double pixel_nm) {
  static std::map<BlurKey, std::shared_ptr<const std::vector<double>>> cache;
  const BlurKey key{n, std::bit_cast<std::uint64_t>(sigma_nm),
                    std::bit_cast<std::uint64_t>(pixel_nm)};
  const std::lock_guard<std::mutex> lock(cache_mutex());
  auto& slot = cache[key];
  if (slot) {
    plan_hits().add();
    return slot;
  }
  plan_misses().add();
  const auto bin_freq = [&](std::size_t i) {
    const auto si = static_cast<std::ptrdiff_t>(i);
    // Bins [0, ceil(n/2)) are non-negative (bin 0 alone when n = 1).
    const auto half = static_cast<std::ptrdiff_t>((n + 1) / 2);
    const std::ptrdiff_t signed_i =
        si < half ? si : si - static_cast<std::ptrdiff_t>(n);
    return static_cast<double>(signed_i) / (static_cast<double>(n) * pixel_nm);
  };
  const double c = 2.0 * std::numbers::pi * std::numbers::pi * sigma_nm * sigma_nm;
  auto table = std::make_shared<std::vector<double>>(n * n);
  for (std::size_t iy = 0; iy < n; ++iy) {
    const double fy = bin_freq(iy);
    for (std::size_t ix = 0; ix < n; ++ix) {
      const double fx = bin_freq(ix);
      (*table)[iy * n + ix] = std::exp(-c * (fx * fx + fy * fy));
    }
  }
  slot = std::move(table);
  return slot;
}

}  // namespace

void gaussian_blur_2d(std::vector<double>& values, std::size_t n, std::size_t m,
                      double sigma_nm, double pixel_nm, util::ExecContext* exec) {
  LITHOGAN_REQUIRE(values.size() == n * n, "gaussian_blur_2d: size mismatch");
  LITHOGAN_REQUIRE(is_power_of_two(m) && m <= n,
                   "gaussian_blur_2d: band side must be a power of two <= n");
  count_algo(ConvAlgo::kFft);
  if (m < n) {
    // The m x m samples' spectrum is (m/n)^2 times the field's band bins;
    // the interpolation divides by n^2, so the samples carry (n/m)^2, an
    // exact power of two. The m-grid pixel (n/m) * pixel_nm is exact too,
    // so the m x m table holds the n x n table's values on the band bins.
    const std::size_t step = n / m;
    const auto scale = static_cast<double>(step * step);
    std::vector<double> samples(m * m);
    for (std::size_t y = 0; y < m; ++y) {
      const double* row = values.data() + y * step * n;
      for (std::size_t x = 0; x < m; ++x) samples[y * m + x] = row[x * step] * scale;
    }
    std::vector<Complex> spectrum = fft2d_real_forward(samples, m, m, exec);
    const auto table = blur_table(m, sigma_nm, pixel_nm * static_cast<double>(step));
    for (std::size_t i = 0; i < spectrum.size(); ++i) spectrum[i] *= (*table)[i];
    std::vector<Complex> rows;
    fourier_interpolate(spectrum, m, n, rows, values.data(), exec);
    return;
  }
  const auto table = blur_table(n, sigma_nm, pixel_nm);

  // The field is real, so the forward transform goes through the
  // Hermitian-symmetric real-to-complex path (half the 1-D FFT work).
  std::vector<Complex> spectrum = fft2d_real_forward(values, n, n, exec);
  const double* att = table->data();
  util::Workspace serial_ws;
  util::parallel_for(exec, serial_ws, 0, n, exec ? exec->grain_for(n) : n, n * n * 8,
                     [&](std::size_t y0, std::size_t y1, util::Workspace&) {
                       for (std::size_t iy = y0; iy < y1; ++iy) {
                         for (std::size_t ix = 0; ix < n; ++ix) {
                           spectrum[iy * n + ix] *= att[iy * n + ix];
                         }
                       }
                     });
  fft2d(spectrum, n, n, /*inverse=*/true, exec);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = spectrum[i].real();
}

}  // namespace lithogan::math

#include "math/conv.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

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

namespace {

/// Output positions o in [lo, hi) along one axis whose input coordinate
/// o*stride + k - pad lies inside [0, in) for kernel tap k. The valid
/// positions of a tap are always one contiguous range.
struct TapRange {
  std::size_t lo = 0, hi = 0;
};

TapRange tap_range(std::size_t in, std::size_t out, std::size_t k, std::size_t stride,
                   std::size_t pad) {
  if (in + pad <= k) return {};  // every position lands past the far edge
  const std::size_t hi = std::min(out, (in - 1 + pad - k) / stride + 1);
  const std::size_t lo = k >= pad ? 0 : (pad - k + stride - 1) / stride;
  return {std::min(lo, hi), hi};
}

/// Writes one logical row of a tiled column matrix front to back: column q
/// lands at lane q % tile_w of tile q / tile_w, tiles tile_stride floats
/// apart. Runs are split where they cross a tile. The position is carried
/// as an offset, so no pointer past the buffer is ever formed.
class TiledRow {
 public:
  TiledRow(float* row, std::size_t tile_w, std::size_t tile_stride)
      : row_(row), tile_w_(tile_w), tile_stride_(tile_stride) {}

  void zeros(std::size_t n) {
    for (std::size_t done = 0; done < n;) {
      const std::size_t run = std::min(n - done, tile_w_ - lane_);
      std::fill_n(row_ + off_ + lane_, run, 0.0f);
      done += run;
      advance(run);
    }
  }

  /// Appends src[0], src[step], ..., src[(n - 1) * step].
  void copy(const float* src, std::size_t n, std::size_t step) {
    for (std::size_t done = 0; done < n;) {
      const std::size_t run = std::min(n - done, tile_w_ - lane_);
      float* out = row_ + off_ + lane_;
      const float* in = src + done * step;
      if (step == 1) {
        std::copy_n(in, run, out);
      } else {
        for (std::size_t i = 0; i < run; ++i) out[i] = in[i * step];
      }
      done += run;
      advance(run);
    }
  }

 private:
  void advance(std::size_t run) {
    lane_ += run;
    if (lane_ == tile_w_) {
      lane_ = 0;
      off_ += tile_stride_;
    }
  }

  float* row_;
  std::size_t tile_w_, tile_stride_;
  std::size_t off_ = 0, lane_ = 0;
};

/// The one im2col walker. Element (p, q) of the (C*k*k) x (Ho*Wo) column
/// matrix lands at dst[(q / tile_w) * rows * tile_w + p * tile_w + q % tile_w]:
/// packed-B panels for tile_w = NR, row-major for tile_w = Ho*Wo (one tile).
/// Each tap's row is its zero margins plus the valid interior copied from
/// the source rows; lanes past Ho*Wo in the last tile are zero-filled.
void im2col_tiled(const float* src, std::size_t channels, std::size_t height,
                  std::size_t width, std::size_t kernel, std::size_t stride,
                  std::size_t pad, std::size_t tile_w, float* dst) {
  const std::size_t out_h = conv_out_size(height, kernel, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel, stride, pad);
  const std::size_t plane = height * width;
  const std::size_t rows = channels * kernel * kernel;
  const std::size_t cols = out_h * out_w;
  const std::size_t padded = (cols + tile_w - 1) / tile_w * tile_w;
  const std::size_t tile_stride = rows * tile_w;

  std::size_t p = 0;
  for (std::size_t c = 0; c < channels; ++c) {
    const float* src_plane = src + c * plane;
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      const TapRange ry = tap_range(height, out_h, ky, stride, pad);
      for (std::size_t kx = 0; kx < kernel; ++kx, ++p) {
        const TapRange rx = tap_range(width, out_w, kx, stride, pad);
        TiledRow row(dst + p * tile_w, tile_w, tile_stride);
        const std::size_t run = rx.hi - rx.lo;
        if (run == 0 || ry.hi == ry.lo) {
          row.zeros(padded);
          continue;
        }
        // Zeros owed before the next copy: the rows above the valid band
        // and this row's left margin, later a right margin plus the next
        // row's left margin.
        std::size_t gap = ry.lo * out_w + rx.lo;
        for (std::size_t oy = ry.lo; oy < ry.hi; ++oy) {
          const float* src_row = src_plane + (oy * stride + ky - pad) * width;
          row.zeros(gap);
          row.copy(src_row + (rx.lo * stride + kx - pad), run, stride);
          gap = out_w - run;
        }
        row.zeros(out_w - rx.hi + (out_h - ry.hi) * out_w + padded - cols);
      }
    }
  }
}

}  // namespace

void im2col(const float* src, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* col) {
  const std::size_t cols = conv_out_size(height, kernel, stride, pad) *
                           conv_out_size(width, kernel, stride, pad);
  im2col_tiled(src, channels, height, width, kernel, stride, pad, cols, col);
}

void im2col_packed(const float* src, std::size_t channels, std::size_t height,
                   std::size_t width, std::size_t kernel, std::size_t stride,
                   std::size_t pad, float* packed) {
  im2col_tiled(src, channels, height, width, kernel, stride, pad, gemm_nr(), packed);
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
// Plan cache
// ---------------------------------------------------------------------------

namespace {

// Engine workspace slot layout (floats of the chunk's arena).
constexpr std::size_t kColSlot = 0;      // packed or row-major columns
constexpr std::size_t kGradColSlot = 1;  // backward gradient columns

obs::Counter& plan_hits() {
  static obs::Counter& c = obs::Registry::global().counter("conv.plan_cache.hit");
  return c;
}
obs::Counter& plan_misses() {
  static obs::Counter& c = obs::Registry::global().counter("conv.plan_cache.miss");
  return c;
}

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

std::map<ConvKey, std::shared_ptr<const ConvPlan>>& plan_map() {
  static std::map<ConvKey, std::shared_ptr<const ConvPlan>> m;
  return m;
}

/// Scalar activation, formula-for-formula the GEMM epilogue's apply_act
/// (and nn/activations), so the deconv writeback rounds identically
/// to a fused epilogue on the same accumulator value.
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

std::shared_ptr<ConvPlan> make_plan(const ConvKey& key) {
  LITHOGAN_REQUIRE(key.in_c > 0 && key.out_c > 0 && key.kernel > 0,
                   "conv plan: empty geometry");
  auto plan = std::make_shared<ConvPlan>();
  plan->key = key;
  if (key.dir == ConvDir::kDeconv) {
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
    // Output column ox accumulates at phase_off[ox % stride] + ox / stride;
    // phase ph holds the ceil((out_w - ph) / stride) columns ox ≡ ph.
    plan->phase_off.assign(key.stride + 1, 0);
    for (std::size_t ph = 0; ph < key.stride; ++ph) {
      plan->phase_off[ph + 1] =
          plan->phase_off[ph] + (plan->out_w + key.stride - 1 - ph) / key.stride;
    }
    // Tap kx reads input columns [r.lo, r.hi): the conv geometry's valid
    // range, with the deconv output as the conv input.
    plan->tap_x.resize(key.kernel);
    for (std::size_t kx = 0; kx < key.kernel; ++kx) {
      const TapRange r = tap_range(plan->out_w, key.in_w, kx, key.stride, key.pad);
      ConvPlan::TapRun& t = plan->tap_x[kx];
      t.col = kx * plan->cols + r.lo;
      t.count = r.hi - r.lo;
      if (t.count > 0) {
        const std::size_t ox = r.lo * key.stride + kx - key.pad;
        t.acc = plan->phase_off[ox % key.stride] + ox / key.stride;
      }
    }
  } else {
    LITHOGAN_REQUIRE(key.output_pad == 0, "conv plan: output_pad on a conv");
    plan->out_h = conv_out_size(key.in_h, key.kernel, key.stride, key.pad);
    plan->out_w = conv_out_size(key.in_w, key.kernel, key.stride, key.pad);
    plan->rows = key.in_c * key.kernel * key.kernel;
    plan->cols = plan->out_h * plan->out_w;
  }
  return plan;
}

}  // namespace

std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key) {
  const std::lock_guard<std::mutex> lock(cache_mutex());
  auto& slot = plan_map()[key];
  if (slot) {
    plan_hits().add();
    return slot;
  }
  plan_misses().add();
  slot = make_plan(key);
  return slot;
}

std::vector<float> pack_conv_weights(const ConvPlan& plan, const float* weights) {
  const ConvKey& k = plan.key;
  std::vector<float> panels;
  if (k.dir == ConvDir::kDeconv) {
    // Deconv GEMM is Col = W^T X with W (in_c, out_c*k*k): pack as the
    // transposed A operand.
    panels.resize(packed_a_size(plan.rows, k.in_c));
    pack_a_t(plan.rows, k.in_c, weights, panels.data());
  } else {
    panels.resize(packed_a_size(k.out_c, plan.rows));
    pack_a(k.out_c, plan.rows, weights, panels.data());
  }
  return panels;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void conv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                    const float* weights, const float* packed, const Epilogue& epi,
                    float* dst, util::ExecContext* exec, util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kConv,
                   "conv2d_forward: plan direction mismatch");
  LITHOGAN_REQUIRE(epi.bias == nullptr || epi.bias_per_row,
                   "conv2d_forward: conv bias is per output channel");
  const ConvKey& k = plan.key;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& col = ws.floats(kColSlot);
    col.resize(packed_b_size(plan.cols, plan.rows));
    for (std::size_t n = n0; n < n1; ++n) {
      im2col_packed(src + n * in_elems, k.in_c, k.in_h, k.in_w, k.kernel, k.stride,
                    k.pad, col.data());
      if (packed != nullptr) {
        gemm_prepacked_pb(k.out_c, plan.cols, plan.rows, 1.0f, packed, col.data(), 0.0f,
                          dst + n * out_elems, epi, inner);
      } else {
        gemm_packed(k.out_c, plan.cols, plan.rows, 1.0f, weights, col.data(), 0.0f,
                    dst + n * out_elems, epi, inner);
      }
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 2 * k.out_c * plan.rows * plan.cols, sample);
}

void conv2d_backward(const ConvPlan& plan, std::size_t batch, const float* input,
                     const float* grad_output, const float* weights, float* grad_input,
                     float* wgrad_partials, float* bgrad_partials,
                     util::ExecContext* exec, util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kConv,
                   "conv2d_backward: plan direction mismatch");
  const ConvKey& k = plan.key;
  const std::size_t rows = plan.rows;
  const std::size_t cols = plan.cols;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * cols;
  const std::size_t wgrad_size = k.out_c * rows;

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& col = ws.floats(kColSlot);
    auto& grad_col = ws.floats(kGradColSlot);
    col.resize(rows * cols);
    grad_col.resize(rows * cols);
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = input + n * in_elems;
      const float* gy = grad_output + n * out_elems;
      float* gx = grad_input + n * in_elems;

      // Weight gradient partial: dW_n = dY_n * Col_n^T.
      im2col(x, k.in_c, k.in_h, k.in_w, k.kernel, k.stride, k.pad, col.data());
      gemm_bt(k.out_c, rows, cols, 1.0f, gy, col.data(), 0.0f,
              wgrad_partials + n * wgrad_size, inner);

      // Bias gradient partial: channel-wise sums of dY_n.
      for (std::size_t oc = 0; oc < k.out_c; ++oc) {
        const float* plane = gy + oc * cols;
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols; ++i) acc += plane[i];
        bgrad_partials[n * k.out_c + oc] = acc;
      }

      // Data gradient: dCol = W^T * dY, then scatter back.
      gemm_at(rows, cols, k.out_c, 1.0f, weights, gy, 0.0f, grad_col.data(), inner);
      std::fill(gx, gx + in_elems, 0.0f);
      col2im(grad_col.data(), k.in_c, k.in_h, k.in_w, k.kernel, k.stride, k.pad, gx);
    }
  };
  util::parallel_for(batch_parallel ? exec : nullptr, serial_ws, 0, batch, 1,
                     batch * 4 * k.out_c * rows * cols, sample);
}

void deconv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                      const float* weights, const float* packed, const Epilogue& epi,
                      float* dst, util::ExecContext* exec, util::Workspace& serial_ws) {
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kDeconv,
                   "deconv2d_forward: plan direction mismatch");
  LITHOGAN_REQUIRE(epi.bias == nullptr || epi.bias_per_row,
                   "deconv2d_forward: deconv bias is per output channel");
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
    col.resize(rows * cols + plan.out_w);  // column matrix, then one row accumulator
    float* acc = col.data() + rows * cols;
    for (std::size_t n = n0; n < n1; ++n) {
      const float* x = src + n * in_elems;
      float* y = dst + n * out_elems;
      // Col = W^T * X...
      if (packed != nullptr) {
        gemm_prepacked(rows, cols, k.in_c, 1.0f, packed, x, 0.0f, col.data(), {},
                       inner);
      } else {
        gemm_at(rows, cols, k.in_c, 1.0f, weights, x, 0.0f, col.data(), inner);
      }
      // ...then build each output row from whole tap rows of col. With
      // output column ox kept at phase_off[ox % stride] + ox / stride in the
      // accumulator, each kx tap row adds into one contiguous run. Taps are
      // added from +0 ascending in (ky, kx) — exactly the order col2im's
      // scatter adds them into a zeroed output — and bias lands after the
      // full accumulation, so this writeback is bit-identical to memset +
      // scatter + bias/activation sweep while streaming the output once.
      for (std::size_t oc = 0; oc < k.out_c; ++oc) {
        const float* cbase = col.data() + oc * kk * cols;
        const float b = epi.bias != nullptr ? epi.bias[oc] : 0.0f;
        float* yplane = y + oc * out_plane;
        for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
          std::fill_n(acc, plan.out_w, 0.0f);
          // The taps (ky, iy) with oy = iy*stride + ky - pad, ascending in ky.
          for (std::size_t ky = (oy + k.pad) % k.stride; ky < k.kernel && ky <= oy + k.pad;
               ky += k.stride) {
            const std::size_t iy = (oy + k.pad - ky) / k.stride;
            if (iy >= k.in_h) continue;
            const float* taps = cbase + ky * k.kernel * cols + iy * k.in_w;
            for (const ConvPlan::TapRun& t : plan.tap_x) {
              const float* tap = taps + t.col;
              float* run = acc + t.acc;
              for (std::size_t i = 0; i < t.count; ++i) run[i] += tap[i];
            }
          }
          float* yrow = yplane + oy * plan.out_w;
          for (std::size_t ph = 0; ph < k.stride; ++ph) {
            const float* run = acc + plan.phase_off[ph];
            const std::size_t len = plan.phase_off[ph + 1] - plan.phase_off[ph];
            for (std::size_t j = 0; j < len; ++j) yrow[ph + j * k.stride] = run[j] + b;
          }
          if (epi.act != Activation::kIdentity) {
            for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
              yrow[ox] = eval_act(epi.act, yrow[ox], epi.slope);
            }
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
  LITHOGAN_REQUIRE(plan.key.dir == ConvDir::kDeconv,
                   "deconv2d_backward: plan direction mismatch");
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

}  // namespace lithogan::math

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
/// (and nn/activations), so the deconv gather writeback rounds identically
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
    const std::size_t in_plane = key.in_h * key.in_w;
    plan->gather_ty =
        build_gather_axis(plan->out_h, key.in_h, key.kernel, key.stride, key.pad,
                          key.kernel * in_plane, key.in_w, plan->gather_y,
                          plan->gather_ycnt);
    plan->gather_tx = build_gather_axis(plan->out_w, key.in_w, key.kernel, key.stride,
                                        key.pad, in_plane, 1, plan->gather_x,
                                        plan->gather_xcnt);
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
    col.resize(rows * cols);
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

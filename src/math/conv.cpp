#include "math/conv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/workspace.hpp"

namespace lithogan::math {

// ---------------------------------------------------------------------------
// Shape helpers and the im2col / col2im primitives of the backward pass
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

/// Fills the rows x cols grid dst with the (height x width) plane src
/// sampled at (i * stride + ky - pad, j * stride + kx - pad), zero where that
/// falls outside the plane: zero bands above and below the valid rows, zero
/// margins around each valid row's copied interior. One tap row of im2col
/// (tap (ky, kx) over the output grid) and one conv phase plane (phase
/// (py, px) over the plane grid) are both such a grid.
void gather_grid(const float* src, std::size_t height, std::size_t width,
                 std::size_t ky, std::size_t kx, std::size_t stride, std::size_t pad,
                 std::size_t rows, std::size_t cols, float* dst) {
  const TapRange ry = tap_range(height, rows, ky, stride, pad);
  const TapRange rx = tap_range(width, cols, kx, stride, pad);
  if (ry.hi == ry.lo || rx.hi == rx.lo) {
    std::fill_n(dst, rows * cols, 0.0f);
    return;
  }
  std::fill_n(dst, ry.lo * cols, 0.0f);
  for (std::size_t i = ry.lo; i < ry.hi; ++i) {
    const float* in = src + (i * stride + ky - pad) * width + rx.lo * stride + kx - pad;
    float* out = dst + i * cols;
    std::fill_n(out, rx.lo, 0.0f);
    if (stride == 1) {
      std::copy_n(in, rx.hi - rx.lo, out + rx.lo);
    } else {
      for (std::size_t j = rx.lo; j < rx.hi; ++j) out[j] = in[(j - rx.lo) * stride];
    }
    std::fill_n(out + rx.hi, cols - rx.hi, 0.0f);
  }
  std::fill_n(dst + ry.hi * cols, (rows - ry.hi) * cols, 0.0f);
}

}  // namespace

void im2col(const float* src, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* col) {
  const std::size_t out_h = conv_out_size(height, kernel, stride, pad);
  const std::size_t out_w = conv_out_size(width, kernel, stride, pad);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t ky = 0; ky < kernel; ++ky) {
      for (std::size_t kx = 0; kx < kernel; ++kx, col += out_h * out_w) {
        gather_grid(src + c * height * width, height, width, ky, kx, stride, pad, out_h,
                    out_w, col);
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
constexpr std::size_t kColSlot = 0;      // phase planes, columns or deconv columns
constexpr std::size_t kGradColSlot = 1;  // backward gradient columns
constexpr std::size_t kPackedASlot = 1;  // forward: raw weights packed per call

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
    // Padded pixel (y, x) lives in phase plane (y % s, x % s) at (y / s,
    // x / s), so tap (ky, kx) of output (oy, ox) is plane (ky % s, kx % s)
    // at (oy + ky / s, ox + kx / s): a fixed shift per tap over the virtual
    // columns q = oy * plane_w + ox.
    const std::size_t s = key.stride;
    plan->plane_h = (key.in_h + 2 * key.pad + s - 1) / s;
    plan->plane_w = (key.in_w + 2 * key.pad + s - 1) / s;
    const std::size_t plane = plan->plane_h * plan->plane_w;
    const std::size_t planes = key.in_c * s * s * plane;
    std::size_t max_off = 0;
    plan->tap_off.reserve(plan->rows);
    for (std::size_t c = 0; c < key.in_c; ++c) {
      for (std::size_t ky = 0; ky < key.kernel; ++ky) {
        for (std::size_t kx = 0; kx < key.kernel; ++kx) {
          const std::size_t off = ((c * s + ky % s) * s + kx % s) * plane +
                                  ky / s * plan->plane_w + kx / s;
          LITHOGAN_REQUIRE(off <= std::numeric_limits<std::uint32_t>::max(),
                           "conv plan: tap offset does not fit in uint32_t");
          plan->tap_off.push_back(static_cast<std::uint32_t>(off));
          max_off = std::max(max_off, off);
        }
      }
    }
    // Every tap's last live column lies inside the planes, and the kernels
    // read whole column tiles, so at most NR - 1 floats past them: one
    // tile of zeros after the last plane covers the widest read.
    plan->buf_floats = planes + gemm_nr();
    LITHOGAN_REQUIRE(
        max_off + implicit_b_extent(plan->plane_w, plan->out_w, plan->out_h) <=
            plan->buf_floats,
        "conv plan: phase-buffer tail shorter than the widest tile read");
  }
  return plan;
}

/// Copies one (C, H, W) sample into the plan's zero-padded phase planes
/// (see make_plan) and zeroes the tail past the last plane.
void fill_phase_planes(const ConvPlan& plan, const float* src, float* buf) {
  const ConvKey& k = plan.key;
  const std::size_t plane = plan.plane_h * plan.plane_w;
  float* out = buf;
  for (std::size_t c = 0; c < k.in_c; ++c) {
    for (std::size_t py = 0; py < k.stride; ++py) {
      for (std::size_t px = 0; px < k.stride; ++px, out += plane) {
        gather_grid(src + c * k.in_h * k.in_w, k.in_h, k.in_w, py, px, k.stride, k.pad,
                    plan.plane_h, plan.plane_w, out);
      }
    }
  }
  std::fill(out, buf + plan.buf_floats, 0.0f);
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
  LITHOGAN_REQUIRE((weights == nullptr) != (packed == nullptr),
                   "conv2d_forward: pass exactly one of weights and packed");
  LITHOGAN_REQUIRE(epi.bias == nullptr || epi.bias_per_row,
                   "conv2d_forward: conv bias is per output channel");
  const ConvKey& k = plan.key;
  const std::size_t in_elems = k.in_c * k.in_h * k.in_w;
  const std::size_t out_elems = k.out_c * plan.cols;
  if (packed == nullptr) {
    auto& panels = serial_ws.floats(kPackedASlot);
    panels.resize(packed_a_size(k.out_c, plan.rows));
    pack_a(k.out_c, plan.rows, weights, panels.data());
    packed = panels.data();
  }

  const bool batch_parallel = exec != nullptr && batch > 1;
  util::ExecContext* inner = batch_parallel ? nullptr : exec;
  auto sample = [&](std::size_t n0, std::size_t n1, util::Workspace& ws) {
    auto& buf = ws.floats(kColSlot);
    buf.resize(plan.buf_floats);
    const ImplicitB b{buf.data(), plan.tap_off.data(), plan.plane_w, plan.out_w,
                      plan.out_h};
    for (std::size_t n = n0; n < n1; ++n) {
      fill_phase_planes(plan, src + n * in_elems, buf.data());
      gemm_implicit(k.out_c, plan.rows, packed, b, dst + n * out_elems, epi, inner);
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
  LITHOGAN_REQUIRE((weights == nullptr) != (packed == nullptr),
                   "deconv2d_forward: pass exactly one of weights and packed");
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

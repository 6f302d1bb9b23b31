// Convolution engine: every convolution in the nn library — training
// forward/backward in nn::Conv2d / ConvTranspose2d and the compiled steps of
// nn::InferencePlan — runs on a ConvPlan resolved from a process-wide plan
// cache.
//
// There is one lowering per direction. A conv runs as an implicit GEMM: each
// sample is copied once into zero-padded stride x stride phase planes, and
// the GEMM micro-kernels read every tap row of the column matrix in place,
// as that tap's fixed shift into the planes (math::gemm_implicit). No
// column matrix is built. The GEMM spans out_h rows of plane_w virtual
// columns; its writeback stores each row's out_w live columns straight into
// NCHW with bias and activation fused. A deconv runs as one GEMM into column
// form plus a writeback that builds each output row from whole tap rows.
// Backward runs on the forward plan with row-major im2col / col2im.
//
// A plan is keyed by the layer geometry alone, so a layer's module forward,
// its backward and its compiled InferencePlan step share one cache entry.
// Results are bit-identical across thread counts under the two-level
// parallel_for discipline, and between raw and prepacked weights.
//
// Observability: conv.plan_cache.{hit,miss} count plan lookups (mirroring
// fft.plan_cache.*) and appear in the BENCH JSON metrics block.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/gemm.hpp"

namespace lithogan::util {
class ExecContext;
class Workspace;
}  // namespace lithogan::util

namespace lithogan::math {

/// Which layer a plan lowers: a convolution or its transpose.
enum class ConvDir : std::uint8_t { kConv = 0, kDeconv = 1 };

/// Plan-cache key: the layer geometry. For kConv in_* is the conv input
/// (large grid); for kDeconv in_* is the deconv input (small grid) and
/// output_pad participates.
struct ConvKey {
  ConvDir dir = ConvDir::kConv;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 1, stride = 1, pad = 0, output_pad = 0;

  auto operator<=>(const ConvKey&) const = default;
};

struct ConvPlan {
  ConvKey key;

  // Derived geometry: out_h/out_w is the spatial extent of the layer's
  // forward output (conv output for kConv, deconv output for kDeconv);
  // rows/cols is the column-matrix shape behind the GEMM lowering
  // (rows = taps, cols = positions).
  std::size_t out_h = 0, out_w = 0;
  std::size_t rows = 0, cols = 0;

  // kConv only: the implicit-GEMM input layout. Channel c's padded pixel
  // (y, x) lives in phase plane c * stride² + (y % stride) * stride +
  // x % stride, at row y / stride and column x / stride of its
  // plane_h x plane_w grid. Tap p of output (oy, ox) then reads
  // buf[tap_off[p] + oy * plane_w + ox]. buf_floats is the planes plus the
  // zero tail the GEMM's widest column-tile read needs.
  std::size_t plane_h = 0, plane_w = 0;
  std::size_t buf_floats = 0;
  std::vector<std::uint32_t> tap_off;

  // kDeconv only: the writeback's column table (geometry-only, so it is
  // shared by every execution of this plan). The row accumulator keeps
  // output column ox at phase_off[ox % stride] + ox / stride, so tap kx
  // adds the contiguous column run tap_x[kx] into a contiguous
  // accumulator run.
  struct TapRun {
    std::size_t col = 0;    ///< col offset of tap kx's first valid input column
    std::size_t count = 0;  ///< valid input columns
    std::size_t acc = 0;    ///< accumulator slot of the first one
  };
  std::vector<TapRun> tap_x;
  std::vector<std::size_t> phase_off;  ///< stride + 1 entries
};

/// Plan from the process-wide cache, built on the first lookup of `key`.
std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key);

/// Packs `weights` — (out_c, in_c*k*k) row-major for conv plans,
/// (in_c, out_c*k*k) for deconv plans — into the GEMM A panels the
/// forward entry points take as `packed`.
std::vector<float> pack_conv_weights(const ConvPlan& plan, const float* weights);

// --- execution --------------------------------------------------------------
//
// All entry points own the batch loop and the two-level dispatch: with an
// ExecContext and batch > 1 samples fan out one per worker (inner kernels
// serial, per-worker Workspace scratch); otherwise samples run on the
// calling thread with `serial_ws` scratch and the context parallelizes the
// inner kernels. The engine uses float slots 0-1 of whichever workspace a
// chunk runs with; callers that share `serial_ws` with the engine must keep
// their own live buffers in higher slots.

/// Forward convolution, epilogue fused into the writeback:
/// dst[n] = epi(conv(src[n], W)). Raw `weights` or `packed` (exactly one,
/// else util::Error; raw weights are packed per call, so the two forms are
/// bit-identical). Bit-identical to im2col -> gemm -> bias/activation sweep.
void conv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                    const float* weights, const float* packed, const Epilogue& epi,
                    float* dst, util::ExecContext* exec, util::Workspace& serial_ws);

/// Backward through the forward geometry: writes grad_input plus
/// per-sample weight/bias gradient partials (batch-major: sample n's
/// weight partial at wgrad_partials + n*out_c*rows, its bias partial at
/// bgrad_partials + n*out_c). The caller reduces partials in sample order,
/// which keeps the accumulated gradients independent of scheduling.
void conv2d_backward(const ConvPlan& plan, std::size_t batch, const float* input,
                     const float* grad_output, const float* weights, float* grad_input,
                     float* wgrad_partials, float* bgrad_partials,
                     util::ExecContext* exec, util::Workspace& serial_ws);

/// Transposed-convolution forward: per sample one GEMM into column form,
/// then the row-run writeback with the epilogue applied after each output
/// pixel's full accumulation (bit-identical to scatter + bias sweep). Raw
/// `weights` or `packed`, exactly one.
void deconv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                      const float* weights, const float* packed, const Epilogue& epi,
                      float* dst, util::ExecContext* exec, util::Workspace& serial_ws);

/// Transposed-convolution backward; partials laid out as conv2d_backward
/// (weight partial stride in_c*rows, bias stride out_c).
void deconv2d_backward(const ConvPlan& plan, std::size_t batch, const float* input,
                       const float* grad_output, const float* weights,
                       float* grad_input, float* wgrad_partials, float* bgrad_partials,
                       util::ExecContext* exec, util::Workspace& serial_ws);

// --- shape helpers (shared lowering primitives) -----------------------------

/// Output spatial extent of a convolution along one axis.
/// Requires in + 2*pad >= kernel.
std::size_t conv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                          std::size_t pad);

/// Output spatial extent of a transposed convolution along one axis:
/// (in-1)*stride - 2*pad + kernel + output_pad.
std::size_t deconv_out_size(std::size_t in, std::size_t kernel, std::size_t stride,
                            std::size_t pad, std::size_t output_pad);

/// src: (C, H, W) contiguous. col: (C*k*k, Ho*Wo) contiguous, fully
/// written. Out-of-bounds taps read as zero: each tap row is zero margins
/// plus the valid interior copied in runs.
void im2col(const float* src, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* col);

/// Adjoint of im2col: scatter-adds col back into dst (C, H, W).
/// dst must be zero-initialized by the caller.
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* dst);

}  // namespace lithogan::math

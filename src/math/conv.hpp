// Unified convolution engine: every convolution in the repo — training
// forward/backward in nn::Conv2d / ConvTranspose2d, the compiled steps of
// nn::InferencePlan, and litho's resist-diffusion blur — routes through a
// ConvPlan resolved from a process-wide plan cache.
//
// A plan is keyed by the full problem geometry (channels, spatial extent,
// kernel/stride/pad/dilation, direction), the packing regime (raw weights
// per call vs prepacked constants) and the thread budget, and selects one
// of three algorithms:
//
//   * kIm2col — im2col-packed GEMM, the historical path: the column matrix
//     is emitted directly in the micro-kernel's packed-B panel layout and
//     one GEMM per sample consumes it;
//   * kDirect — no column materialization. 1x1/stride-1/pad-0 shapes run as
//     a plain GEMM on the input (the column matrix IS the input); other
//     stride-1 shapes run a vectorizable tap loop, profitable when the
//     im2col row count is small;
//   * kFft — spectral convolution on a power-of-two grid through the
//     process-wide FFT plan cache, profitable for large kernels.
//
// Selection is a deterministic analytic cost model over the geometry and
// direction ONLY: two keys differing just in `prepacked` or `threads` get
// the same algorithm, which is what keeps InferencePlan bit-identical to
// the eval-mode module forward and results independent of the thread
// count. Every algorithm is individually bit-identical across thread
// counts under the two-level parallel_for discipline; algorithms differ
// from each other at rounding level (gated by tolerance tests against the
// naive reference in tests/conv_engine_test.cpp).
//
// Knobs (read when a plan is first built, i.e. on a cache miss):
//   LITHOGAN_CONV_ALGO=im2col|direct|fft  force an algorithm for every NCHW
//       conv plan it can execute (keys it cannot fall back to the model).
//       Tests and the conv smoke benches use it to drive each algorithm
//       through the full stack.
//
// Observability: conv.plan_cache.{hit,miss} count plan lookups (mirroring
// fft.plan_cache.*), conv.algo.{im2col,direct,fft} count engine executions
// per algorithm; both appear in the BENCH JSON metrics block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "math/fft.hpp"
#include "math/gemm.hpp"

namespace lithogan::util {
class ExecContext;
class Workspace;
}  // namespace lithogan::util

namespace lithogan::math {

enum class ConvAlgo : std::uint8_t { kIm2col = 0, kDirect = 1, kFft = 2 };

/// "im2col", "direct" or "fft" — stable strings used by LITHOGAN_CONV_ALGO
/// and plan dumps.
const char* conv_algo_name(ConvAlgo algo);

/// Which linear map of the conv layer a plan executes. Backward-data and
/// backward-weight are separate plans (they have different algorithm
/// candidates); deconv backward computes both gradients from one shared
/// column gather, so it is a single direction.
enum class ConvDir : std::uint8_t {
  kForward = 0,
  kBwdData = 1,
  kBwdWeight = 2,
  kDeconvForward = 3,
  kDeconvBackward = 4,
};

/// Full plan-cache key. For conv directions in_* is the conv input (large
/// grid); for deconv directions in_* is the deconv input (small grid) and
/// output_pad participates. `prepacked` and `threads` size scratch and
/// pick dispatch parameters but are deliberately IGNORED by algorithm
/// selection (see file comment).
struct ConvKey {
  ConvDir dir = ConvDir::kForward;
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 1, stride = 1, pad = 0, dilation = 1, output_pad = 0;
  bool prepacked = false;
  std::size_t threads = 1;
};

/// Pre-packed constant weights in the layout `plan->algo` consumes:
/// micro-kernel A panels for kIm2col / kDirect (a raw row-major copy for
/// the tap-loop direct variant), per-(oc, ic) kernel spectra for kFft.
struct PackedConvWeights {
  std::vector<float> panels;
  std::vector<Complex> spectra;

  /// Bytes held by the panels and spectra.
  std::size_t weight_bytes() const;
};

struct ConvPlan {
  ConvKey key;
  ConvAlgo algo = ConvAlgo::kIm2col;

  // Derived geometry: out_h/out_w is the spatial extent of the layer's
  // forward output (conv output for conv directions, deconv output for
  // deconv directions); rows/cols is the im2col matrix shape backing the
  // GEMM lowering (rows = taps, cols = positions).
  std::size_t out_h = 0, out_w = 0;
  std::size_t rows = 0, cols = 0;

  // kFft only: power-of-two spectral grid (>= in + 2*pad per axis).
  std::size_t fft_h = 0, fft_w = 0;

  // kDeconvForward only: col2im gather tables (geometry-only, so they are
  // shared by every execution of this plan). For each output coordinate,
  // the column-matrix offsets of the taps that land on it, ascending in
  // ky (resp. kx) — the order col2im's scatter visits them, so the gather
  // replays the scatter accumulation bit for bit.
  std::vector<std::uint32_t> gather_y, gather_x;
  std::vector<std::uint8_t> gather_ycnt, gather_xcnt;
  std::size_t gather_ty = 0, gather_tx = 0;

  // Analytic cost-model scores (scalar-op estimates; 0 = not a candidate),
  // kept for plan dumps and tests.
  double cost_im2col = 0.0, cost_direct = 0.0, cost_fft = 0.0;
};

/// Plan from the process-wide cache. Deterministic per key: the same key
/// yields the same algorithm on every run.
std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key);

/// Plan with the algorithm forced, bypassing the cost model and the env
/// override (still cached, under a distinct forced entry). Throws if
/// `algo` cannot execute `key` (see conv_algo_candidates).
std::shared_ptr<const ConvPlan> conv_plan(const ConvKey& key, ConvAlgo algo);

/// Algorithms able to execute `key`, ascending in enum order. kIm2col can
/// execute everything; kDirect needs stride 1 (conv directions; backward
/// additionally kernel 1 / pad 0); kFft covers forward only, kernel >= 2,
/// with a cap on spectra memory.
std::vector<ConvAlgo> conv_algo_candidates(const ConvKey& key);

/// Packs `weights` — (out_c, in_c*k*k) row-major for conv plans,
/// (in_c, out_c*k*k) for deconv plans — into the layout `plan.algo` wants.
PackedConvWeights pack_conv_weights(const ConvPlan& plan, const float* weights);

// --- execution --------------------------------------------------------------
//
// All entry points own the batch loop and the two-level dispatch: with an
// ExecContext and batch > 1 samples fan out one per worker (inner kernels
// serial, per-worker Workspace scratch); otherwise samples run on the
// calling thread with `serial_ws` scratch and the context parallelizes the
// inner kernels. The engine uses float slots 0-1 and complex slots 0-3 of
// whichever workspace a chunk runs with; callers that share `serial_ws`
// with the engine must keep their own live buffers in higher slots.

/// Forward convolution, epilogue fused into the writeback:
/// dst[n] = epi(conv(src[n], W)). Raw `weights` or `packed` (exactly one;
/// the two forms are bit-identical).
void conv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                    const float* weights, const PackedConvWeights* packed,
                    const Epilogue& epi, float* dst, util::ExecContext* exec,
                    util::Workspace& serial_ws);

/// Backward through the forward geometry: writes grad_input plus
/// per-sample weight/bias gradient partials (batch-major: sample n's
/// weight partial at wgrad_partials + n*out_c*rows, its bias partial at
/// bgrad_partials + n*out_c). The caller reduces partials in sample order,
/// which keeps the accumulated gradients independent of scheduling.
void conv2d_backward(const ConvPlan& data_plan, const ConvPlan& weight_plan,
                     std::size_t batch, const float* input, const float* grad_output,
                     const float* weights, float* grad_input, float* wgrad_partials,
                     float* bgrad_partials, util::ExecContext* exec,
                     util::Workspace& serial_ws);

/// Transposed-convolution forward: per sample one GEMM into column form,
/// then the gather writeback with the epilogue applied after each output
/// pixel's full accumulation (bit-identical to scatter + bias sweep).
void deconv2d_forward(const ConvPlan& plan, std::size_t batch, const float* src,
                      const float* weights, const PackedConvWeights* packed,
                      const Epilogue& epi, float* dst, util::ExecContext* exec,
                      util::Workspace& serial_ws);

/// Transposed-convolution backward; partials laid out as conv2d_backward
/// (weight partial stride in_c*rows, bias stride out_c).
void deconv2d_backward(const ConvPlan& plan, std::size_t batch, const float* input,
                       const float* grad_output, const float* weights,
                       float* grad_input, float* wgrad_partials, float* bgrad_partials,
                       util::ExecContext* exec, util::Workspace& serial_ws);

/// Spectral Gaussian blur of a real n x n periodic field (the litho resist
/// diffusion step), in place. `m` is the side of the band the field
/// carries: a power of two <= n such that the field is the Fourier
/// interpolation of its m x m samples, or n for a field with no band. The
/// attenuation table exp(-2 pi^2 sigma^2 |f|^2) is cached in the same plan
/// cache (keyed on grid side, sigma_nm and pixel size) instead of
/// recomputed per call. Counts as a kFft execution.
///
/// For m = n the full n x n spectrum is blurred: a real forward transform,
/// the multiply and a complex inverse, byte-identical to the historical
/// litho::diffuse loop. For m < n the field is sampled at every (n/m)-th
/// pixel, which is exact for band-limited periodic data; the m x m samples
/// are transformed, attenuated by the m x m table and Fourier-interpolated
/// back to n x n (fourier_interpolate). A Gaussian only scales each bin, so
/// the blurred field keeps the band and the result equals the full-grid
/// blur to rounding, at about (m/n)^2 of its forward transform work and
/// without the n x n complex spectrum.
void gaussian_blur_2d(std::vector<double>& values, std::size_t n, std::size_t m,
                      double sigma_nm, double pixel_nm, util::ExecContext* exec);

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
/// written. Out-of-bounds taps read as zero.
void im2col(const float* src, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* col);

/// im2col directly into the packed-B panel layout consumed by
/// gemm_packed (see math/gemm.hpp): the column matrix never exists in
/// row-major form. `packed` must hold packed_b_size(Ho*Wo, C*k*k) floats;
/// ragged tile columns are zero-filled.
void im2col_packed(const float* src, std::size_t channels, std::size_t height,
                   std::size_t width, std::size_t kernel, std::size_t stride,
                   std::size_t pad, float* packed);

/// Adjoint of im2col: scatter-adds col back into dst (C, H, W).
/// dst must be zero-initialized by the caller.
void col2im(const float* col, std::size_t channels, std::size_t height,
            std::size_t width, std::size_t kernel, std::size_t stride, std::size_t pad,
            float* dst);

}  // namespace lithogan::math

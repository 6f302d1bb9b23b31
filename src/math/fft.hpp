// Fast Fourier transforms for the optical model.
//
// The optical simulator computes aerial images as sums of |h_k * m|^2 over
// SOCS kernels; each convolution is done in the frequency domain. Grids are
// zero-padded to powers of two, so only the radix-2 case is implemented.
//
// Transforms are driven by FftPlans: precomputed twiddle tables and
// bit-reversal permutations keyed by (size, direction). Plans are built once
// in a process-wide cache and memoized per worker in util::Workspace plan
// slot 0, so steady-state transforms touch no lock and recompute no
// trigonometry. Real inputs (mask rasterization, resist stages) go through
// fft2d_real_forward, which halves the 1-D transform count via Hermitian
// symmetry (two-for-one packed row transforms, mirrored columns).
//
// fft2d optionally runs row- and column-parallel over an ExecContext. Every
// 1-D transform touches a disjoint line of the grid, so results are
// bit-identical at any thread count.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace lithogan::util {
class ExecContext;
class Workspace;
}  // namespace lithogan::util

namespace lithogan::math {

using Complex = std::complex<double>;

/// True if n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// Precomputed radix-2 transform of one size and direction: the bit-reversal
/// permutation plus every stage's twiddle factors (stage `len` occupies
/// twiddles[len/2 - 1, len - 1)). Immutable once built; shared freely across
/// threads.
struct FftPlan {
  std::size_t n = 0;
  bool inverse = false;
  std::vector<std::uint32_t> bitrev;
  std::vector<Complex> twiddles;
};

/// Plan for (n, inverse) from the process-wide cache (mutex-protected; plans
/// are built once and shared). n must be a power of two.
std::shared_ptr<const FftPlan> fft_plan(std::size_t n, bool inverse);

/// Same plan, memoized in `ws` (Workspace plan slot 0) so a worker's
/// steady-state lookups are lock-free.
const FftPlan& fft_plan(util::Workspace& ws, std::size_t n, bool inverse);

/// In-place radix-2 FFT of plan.n points using precomputed tables.
void fft(Complex* data, const FftPlan& plan);

/// In-place radix-2 complex FFT over `data[0..n)`. `n` must be a power of
/// two. `inverse` applies the conjugate transform and divides by N, so
/// ifft(fft(x)) == x. Fetches the plan from the process-wide cache.
void fft(Complex* data, std::size_t n, bool inverse);

/// Vector convenience wrapper over the pointer form.
void fft(std::vector<Complex>& data, bool inverse);

/// Row-major 2-D FFT over a rows x cols grid (both powers of two).
/// Transforms rows then columns; `inverse` as in fft(). Rows are
/// transformed in place (no staging copies); columns gather through a
/// per-task scratch line.
void fft2d(std::vector<Complex>& data, std::size_t rows, std::size_t cols, bool inverse,
           util::ExecContext* exec = nullptr);

/// Forward 2-D FFT of a REAL rows x cols grid, returning the full complex
/// spectrum. Exploits Hermitian symmetry twice: row transforms are done
/// two-for-one (a pair of real rows packed into one complex transform) and
/// only columns [0, cols/2] are transformed, the upper half mirrored as
/// F(u, v) = conj(F((rows-u) % rows, cols-v)). Agrees with the dense complex
/// path to rounding error (~1e-15 relative) at roughly half the FFT work.
std::vector<Complex> fft2d_real_forward(const std::vector<double>& data,
                                        std::size_t rows, std::size_t cols,
                                        util::ExecContext* exec = nullptr);

/// Fourier interpolation of a real m x m periodic image to n x n (m < n,
/// both powers of two), from the image's m x m spectrum as
/// fft2d_real_forward returns it. The bins with |q| < m/2 are zero-padded
/// into the n x n spectrum and inverse-transformed into `out` (n x n,
/// row-major). The Nyquist row and column, zero in exact arithmetic for an
/// image whose spectrum lies strictly inside |q| < m/2, are dropped so the
/// padded spectrum stays Hermitian; for such an image the result is exact.
/// The inverse divides by n^2, not m^2, so `out` is (m/n)^2 times the
/// interpolated image: callers fold the exact power of two (n/m)^2 into
/// their data. A caller may scale the spectrum first (a filter, say), as
/// long as it stays Hermitian.
///
/// The inverse is pruned. Only the band rows of the padded spectrum are
/// nonzero, so only they are row-transformed, into the scratch `rows` (one
/// length-n line per band row). The result is real, so the column stage
/// transforms two columns per complex FFT: column c in the real part, c + 1
/// in the imaginary part. Every line is independent, so both stages are
/// bit-identical at any thread count.
void fourier_interpolate(const std::vector<Complex>& spectrum, std::size_t m,
                         std::size_t n, std::vector<Complex>& rows, double* out,
                         util::ExecContext* exec = nullptr);

/// Reference O(N^2) DFT used by tests to validate the FFT.
std::vector<Complex> naive_dft(const std::vector<Complex>& data, bool inverse);

}  // namespace lithogan::math

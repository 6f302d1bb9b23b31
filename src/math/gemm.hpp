// Single-precision matrix multiplication — the workhorse behind every
// convolution in the neural-network library.
//
// The kernel is a packed, register-blocked micro-kernel GEMM: A is repacked
// into panels sized for the cache hierarchy and an MR x NR register tile is
// accumulated over K. The micro-kernels find each K row of a B column tile
// through a row-offset table, so one kernel family reads both packed B
// panels (the constant table p * NR) and a convolution's implicit B, whose
// rows are shifted windows of one padded input (see gemm_implicit). Each
// micro-kernel has three implementations: AVX-512 intrinsics, AVX2+FMA
// intrinsics and portable C++ written for compiler auto-vectorization. A
// build compiles the intrinsic one its target ISA allows
// (-DLITHOGAN_NATIVE=ON on a capable machine) beside the portable one, and
// picks between them once per process at runtime from the CPU's features;
// simd_level() names the choice. The register tile is fixed per build:
// 8 x 32 when the build targets AVX-512F, 6 x 16 otherwise. Each variant
// optionally runs row-block parallel over an ExecContext; every row of C is
// written by exactly one task and its K-accumulation order (K-blocks
// ascending, lanes independent) never changes, so results are bit-identical
// at any thread count (including the serial exec == nullptr path). The
// implementations may differ from each other at rounding level, but the
// dispatch is fixed per process, so every build is individually
// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lithogan::util {
class ExecContext;
}

namespace lithogan::math {

/// C = alpha * A(m x k) * B(k x n) + beta * C(m x n), all row-major, dense.
void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          const float* b, float beta, float* c, util::ExecContext* exec = nullptr);

/// C = alpha * A^T * B(k x n) + beta * C(m x n), where A is stored k x m
/// row-major and used as its transpose (logical m x k). Convenient for
/// weight gradients and deconv columns without materializing A^T.
void gemm_at(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float beta, float* c, util::ExecContext* exec = nullptr);

/// C = alpha * A(m x k) * B^T (B is n x k row-major) + beta * C(m x n).
void gemm_bt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float beta, float* c, util::ExecContext* exec = nullptr);

// --- Pre-packed B interface -------------------------------------------------
//
// B (k x n logical) is split into column tiles of gemm_nr() columns; tile jt
// occupies the contiguous range packed[jt * k * NR, (jt+1) * k * NR) laid out
// p-major, i.e. element (p, jt*NR + j) lives at packed[jt*k*NR + p*NR + j].
// Columns beyond n in the last tile are zero-filled.

/// Width of one packed-B column tile (NR of the micro-kernel).
std::size_t gemm_nr();

/// Number of floats a packed B of logical shape (k x n) occupies.
std::size_t packed_b_size(std::size_t n, std::size_t k);

/// Packs row-major B (k x n) into the panel layout described above.
void pack_b(std::size_t k, std::size_t n, const float* b, float* packed);

/// C = alpha * A(m x k) * B + beta * C where B is already in packed panel
/// layout (pack_b / pack_b_t). Bit-identical to gemm() on the same
/// operands.
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* packed_b, float beta, float* c,
                 util::ExecContext* exec = nullptr);

// --- Fused epilogue ---------------------------------------------------------
//
// A forward-only GEMM is almost always followed by a bias broadcast and an
// activation; running those as separate sweeps re-streams C through the
// cache twice. The Epilogue describes that tail so the kernel can apply it
// to each C tile during the final K block's writeback, while the tile is
// still hot. The scalar formulas match nn/activations.cpp exactly, and the
// bias add happens after the full alpha/beta accumulation, so a fused call
// is bit-identical to gemm + bias sweep + activation sweep.

enum class Activation { kIdentity, kRelu, kLeakyRelu, kTanh, kSigmoid };

struct Epilogue {
  const float* bias = nullptr;  ///< broadcast add, or nullptr for none
  bool bias_per_row = true;     ///< bias indexed by C row (conv) vs column (linear)
  Activation act = Activation::kIdentity;
  float slope = 0.2f;  ///< LeakyReLU negative slope
  bool trivial() const { return bias == nullptr && act == Activation::kIdentity; }
};

/// gemm_packed with a fused epilogue (A packed on the fly per call — the
/// per-sample activations path, e.g. Linear where A is the input batch).
void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* packed_b, float beta, float* c,
                 const Epilogue& epi, util::ExecContext* exec = nullptr);

// --- Pre-packed A interface -------------------------------------------------
//
// Constant weights (conv / linear parameters at inference time) can be
// packed into the micro-kernel's A-panel layout once instead of per call.
// The layout mirrors what the kernel packs on the fly: logical A(m x k) is
// split into K blocks of up to kBlockK (=256) columns; the block starting
// at column p0 occupies packed[p0 * rt * MR, ...) where rt = ceil(m / MR)
// is the row-tile count. Within a block of depth kc, row tile t is the
// contiguous kc * MR range at t * kc * MR, laid out p-major (element
// (p0 + p, t*MR + r) at offset p*MR + r); rows past m are zero-filled.

/// Height of one packed-A row tile (MR of the micro-kernel).
std::size_t gemm_mr();

/// Number of floats a packed A of logical shape (m x k) occupies (includes
/// a small zeroed tail the thin-tile kernels may load past the last tile).
std::size_t packed_a_size(std::size_t m, std::size_t k);

/// Packs row-major A (m x k) into the panel layout described above.
void pack_a(std::size_t m, std::size_t k, const float* a, float* packed);

/// Packs A stored k x m row-major (used as its transpose, logical m x k) —
/// the gemm_at operand convention (e.g. deconv weights).
void pack_a_t(std::size_t m, std::size_t k, const float* a, float* packed);

/// Packs B stored n x k row-major (used as its transpose, logical k x n)
/// into the packed-B panel layout — the gemm_bt operand convention (e.g.
/// linear weights, stored out x in).
void pack_b_t(std::size_t k, std::size_t n, const float* b, float* packed);

/// C = alpha * A * B(k x n row-major) + beta * C with A pre-packed
/// (pack_a / pack_a_t); B is packed per call on the calling thread.
/// Bit-identical to gemm()/gemm_at() on the same logical operands.
void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const float* packed_a, const float* b, float beta, float* c,
                    const Epilogue& epi = {}, util::ExecContext* exec = nullptr);

// --- Implicit B -------------------------------------------------------------
//
// A convolution's B operand (taps x output positions) never has to exist as
// a matrix: every tap row is a shifted window of one zero-padded input. An
// implicit B is read in place — element (p, q) of logical B is
// b[off[p] + q]. Virtual column q = y * row_w + x is live when x < live_w
// and lands in C column y * live_w + x; the x >= live_w columns between
// rows are computed in the register tile but never stored. C is dense,
// m x (rows * live_w) row-major.

struct ImplicitB {
  const float* b = nullptr;
  const std::uint32_t* off = nullptr;  ///< k row offsets into b
  std::size_t row_w = 0;               ///< virtual columns per C row group
  std::size_t live_w = 0;              ///< live columns per row group (<= row_w)
  std::size_t rows = 0;                ///< row groups
};

/// Floats the kernels may read from b + off[p] for any p: the virtual
/// columns (rows - 1) * row_w + live_w rounded up to whole NR tiles. The
/// caller keeps that range readable and finite (a zero tail past its data).
std::size_t implicit_b_extent(std::size_t row_w, std::size_t live_w, std::size_t rows);

/// C = A * B with A pre-packed (pack_a) and B implicit, epilogue fused into
/// the writeback of the live columns. Runs the same kernels in the same
/// K order as gemm_prepacked, so each live C element is bit-identical to
/// gemm_prepacked on the materialized B. gemm.flops counts live columns
/// only.
void gemm_implicit(std::size_t m, std::size_t k, const float* packed_a,
                   const ImplicitB& b, float* c, const Epilogue& epi,
                   util::ExecContext* exec = nullptr);

/// Name of the micro-kernel the runtime dispatch selected for this process:
/// "avx512f", "avx2-fma" or "portable". Recorded in bench JSON host
/// metadata so BENCH_*.json trajectories are comparable across machines.
const char* simd_level();

}  // namespace lithogan::math

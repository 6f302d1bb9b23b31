#include "math/gemm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/exec_context.hpp"

#if defined(__AVX512F__) || (defined(__AVX2__) && defined(__FMA__))
#include <immintrin.h>
#endif

namespace lithogan::math {

namespace {
// Micro-kernel register tile: MR rows of C by NR columns, chosen per ISA so
// the accumulators fill the register file without spilling. AVX-512 builds
// use an 8 x 32 tile (16 zmm accumulators of the 32 available, FMA-bound at
// 16 FMAs per K step against 10 loads); AVX2 and portable builds use 6 x 16
// (12 ymm accumulators plus two B loads and one A broadcast fit the 16 ymm
// registers).
#if defined(__AVX512F__)
constexpr std::size_t kMr = 8;
constexpr std::size_t kNr = 32;
#else
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
#endif
// Cache blocking: a KC-deep slice of B streams through L1 one NR panel at a
// time while an MC x KC block of A stays resident in L2.
constexpr std::size_t kBlockK = 256;
constexpr std::size_t kBlockM = 96;  // multiple of kMr
// Minimum multiply-adds per task; splitting finer than this loses more to
// scheduling than the extra threads recover.
constexpr std::size_t kMinFlopsPerTask = 16 * 1024;
// Minimum C rows per task. Every task streams the whole packed B panel
// (4*n*k bytes), so a task's arithmetic intensity is rows/2 flops per B
// byte — chunks thinner than a few MR tiles turn the GEMM memory-bound on
// B re-reads no matter how many cores join in.
constexpr std::size_t kMinRowsPerTask = 32;
// Workspace float slots used for panel scratch. High numbers keep clear of
// the low slots callers (conv's input buffers) use in the same arenas.
constexpr std::size_t kAPanelSlot = 7;
constexpr std::size_t kBPanelSlot = 8;

/// Row offsets of one K block of a packed-B panel: row p at p * kNr.
constexpr std::array<std::uint32_t, kBlockK> kPanelRowOff = [] {
  std::array<std::uint32_t, kBlockK> off{};
  for (std::size_t p = 0; p < kBlockK; ++p) off[p] = static_cast<std::uint32_t>(p * kNr);
  return off;
}();

/// Scratch for the serial path and for B packing on the calling thread.
/// Thread-local so gemm stays safe when invoked concurrently from pool
/// workers that passed exec == nullptr (the batch-parallel conv path).
util::Workspace& local_workspace() {
  thread_local util::Workspace ws;
  return ws;
}

void scale_c(std::size_t m, std::size_t n, float beta, float* c) {
  if (beta == 1.0f) return;
  if (beta == 0.0f) {
    std::memset(c, 0, m * n * sizeof(float));
    return;
  }
  for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
}

/// Rows of C per task such that each task does at least kMinFlopsPerTask
/// multiply-adds (`row_cost` = n * k of the variant). Rounded up to a
/// multiple of kMr so chunk boundaries coincide with full register tiles.
std::size_t row_grain(const util::ExecContext* exec, std::size_t m,
                      std::size_t row_cost) {
  const std::size_t min_rows = std::max(
      kMinRowsPerTask,
      kMinFlopsPerTask / std::max<std::size_t>(1, row_cost));
  const std::size_t grain = std::max(min_rows, exec ? exec->grain_for(m) : m);
  return (grain + kMr - 1) / kMr * kMr;
}

// --- Packing ---------------------------------------------------------------

/// Packs logical B(k x n) columns [jt*NR, jt*NR + NR) p-major with zero
/// padding past n. TransB reads B stored n x k row-major (ldb = k).
template <bool TransB>
void pack_b_impl(std::size_t k, std::size_t n, const float* b, std::size_t ldb,
                 float* packed) {
  const std::size_t tiles = (n + kNr - 1) / kNr;
  for (std::size_t jt = 0; jt < tiles; ++jt) {
    const std::size_t j0 = jt * kNr;
    const std::size_t jw = std::min(kNr, n - j0);
    float* dst = packed + jt * k * kNr;
    for (std::size_t p = 0; p < k; ++p) {
      float* d = dst + p * kNr;
      if constexpr (TransB) {
        for (std::size_t j = 0; j < jw; ++j) d[j] = b[(j0 + j) * ldb + p];
      } else {
        const float* src = b + p * ldb + j0;
        for (std::size_t j = 0; j < jw; ++j) d[j] = src[j];
      }
      for (std::size_t j = jw; j < kNr; ++j) d[j] = 0.0f;
    }
  }
}

/// Packs rows [i0, i0 + rows) of logical A(m x k), K range [p0, p0 + kc),
/// into MR-row tiles laid out p-major (element (p, r) of tile t at
/// packed[t*kc*MR + p*MR + r]); rows past the edge are zero-filled. TransA
/// reads A stored k x m row-major (lda = m).
template <bool TransA>
void pack_a_block(std::size_t i0, std::size_t rows, std::size_t p0, std::size_t kc,
                  const float* a, std::size_t lda, float* packed) {
  const std::size_t tiles = (rows + kMr - 1) / kMr;
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t r0 = i0 + t * kMr;
    const std::size_t rh = std::min(kMr, i0 + rows - r0);
    float* dst = packed + t * kc * kMr;
    for (std::size_t p = 0; p < kc; ++p) {
      float* d = dst + p * kMr;
      for (std::size_t r = 0; r < rh; ++r) {
        d[r] = TransA ? a[(p0 + p) * lda + r0 + r] : a[(r0 + r) * lda + p0 + p];
      }
      for (std::size_t r = rh; r < kMr; ++r) d[r] = 0.0f;
    }
  }
}

// --- Micro-kernels ----------------------------------------------------------
//
// acc[MR][NR] = sum_p ap[p*MR + r] * bp[off[p] + j] over the K block: B row
// p of the column tile starts off[p] floats past bp (p * NR in a packed
// panel, a tap's shift in an implicit conv B). Each (r, j) accumulator is
// one sequential chain over p, so the result is independent of how the
// caller split rows across tasks and of where the B rows live.

using MicroKernel = void (*)(std::size_t kc, const float* ap, const float* bp,
                             const std::uint32_t* off, float* acc);

void micro_kernel_portable(std::size_t kc, const float* ap, const float* bp,
                           const std::uint32_t* off, float* acc) {
  float local[kMr * kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + off[p];
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      float* dst = local + r * kNr;
      for (std::size_t j = 0; j < kNr; ++j) dst[j] += av * brow[j];
    }
  }
  std::memcpy(acc, local, sizeof(local));
}

#if defined(__AVX512F__)
void micro_kernel_avx512(std::size_t kc, const float* ap, const float* bp,
                         const std::uint32_t* off, float* acc) {
  __m512 c0[kMr];
  __m512 c1[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    c0[r] = _mm512_setzero_ps();
    c1[r] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + off[p];
    const __m512 b0 = _mm512_loadu_ps(brow);
    const __m512 b1 = _mm512_loadu_ps(brow + 16);
    const float* arow = ap + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      c0[r] = _mm512_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm512_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    _mm512_storeu_ps(acc + r * kNr, c0[r]);
    _mm512_storeu_ps(acc + r * kNr + 16, c1[r]);
  }
}
#elif defined(__AVX2__) && defined(__FMA__)
void micro_kernel_avx2(std::size_t kc, const float* ap, const float* bp,
                       const std::uint32_t* off, float* acc) {
  __m256 c0[kMr];
  __m256 c1[kMr];
  for (std::size_t r = 0; r < kMr; ++r) {
    c0[r] = _mm256_setzero_ps();
    c1[r] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + off[p];
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const float* arow = ap + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_broadcast_ss(arow + r);
      c0[r] = _mm256_fmadd_ps(av, b0, c0[r]);
      c1[r] = _mm256_fmadd_ps(av, b1, c1[r]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    _mm256_storeu_ps(acc + r * kNr, c0[r]);
    _mm256_storeu_ps(acc + r * kNr + 8, c1[r]);
  }
}
#endif

// --- Thin-tile micro-kernels ------------------------------------------------
//
// The serving path's deconv and deep-encoder GEMMs have C tiles far narrower
// than the register block (N = out_h*out_w drops to 16/4/1 deep in the
// generator), and the wide kernel computes all kNr padded columns anyway —
// up to 15/16 of its FMAs are on zero lanes. These variants compute only the
// live columns. Each (r, j) accumulator stays one sequential FMA chain over
// p in the same order as the wide kernel (the half kernels are literally its
// lower lane half; the narrow kernels vectorize over M with one fused
// multiply-add per p per column), so every C element is bit-identical. The
// narrow kernels take their columns as a lane list: an implicit conv B's
// small tiles hold live lanes between dead ones (a 2x2 output is lanes
// {0, 1, 4, 5}), and each listed lane's result lands in its own acc lane.

/// Narrow kernels pay off while one vector FMA per live column beats the
/// wide kernel's fixed 2*kMr per K step.
constexpr std::size_t kNarrowCols = 4;

/// Columns j < cols of one row tile; column j reads and writes lane lane[j].
void micro_kernel_narrow_portable_one(std::size_t kc, const float* ap, const float* bp,
                                      const std::uint32_t* off, const std::uint32_t* lane,
                                      float* acc, std::size_t cols) {
  float local[kMr * kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* arow = ap + p * kMr;
    const float* brow = bp + off[p];
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      float* dst = local + r * kNr;
      for (std::size_t j = 0; j < cols; ++j) dst[j] += av * brow[lane[j]];
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < cols; ++j) acc[r * kNr + lane[j]] = local[r * kNr + j];
  }
}

/// Lanes 0 .. kNr-1 in order: the contiguous column list.
constexpr std::array<std::uint32_t, kNr> kIdentityLanes = [] {
  std::array<std::uint32_t, kNr> lanes{};
  for (std::size_t j = 0; j < kNr; ++j) lanes[j] = static_cast<std::uint32_t>(j);
  return lanes;
}();

void micro_kernel_narrow_portable(std::size_t kc, const float* ap, const float* bp,
                                  const std::uint32_t* off, const std::uint32_t* lane,
                                  float* acc, std::size_t cols, std::size_t ntiles) {
  for (std::size_t t = 0; t < ntiles; ++t) {
    micro_kernel_narrow_portable_one(kc, ap + t * kc * kMr, bp, off, lane,
                                     acc + t * kMr * kNr, cols);
  }
}

void micro_kernel_half_portable(std::size_t kc, const float* ap, const float* bp,
                                const std::uint32_t* off, float* acc) {
  micro_kernel_narrow_portable_one(kc, ap, bp, off, kIdentityLanes.data(), acc, kNr / 2);
}

#if defined(__AVX512F__)
/// The wide kernel's lower lane half: c1/b1 dropped, everything else
/// identical — covers tiles of up to kNr/2 live columns.
void micro_kernel_half_avx512(std::size_t kc, const float* ap, const float* bp,
                              const std::uint32_t* off, float* acc) {
  __m512 c0[kMr];
  for (std::size_t r = 0; r < kMr; ++r) c0[r] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + off[p]);
    const float* arow = ap + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      c0[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r]), b0, c0[r]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) _mm512_storeu_ps(acc + r * kNr, c0[r]);
}

/// Vectorized over M: the A panel stores kMr (== 8) consecutive rows per K
/// step, so one 256-bit load covers a whole row tile and each live column
/// keeps its own accumulator chain. G consecutive row tiles are interleaved
/// in the same pass over p — a single narrow tile has only COLS accumulator
/// chains and stalls on the FMA latency; interleaving supplies independent
/// chains (and shares the B broadcasts) without reordering any element's
/// own chain, so the result stays bit-identical. COLS and G are
/// compile-time so the loops fully unroll.
template <int COLS, int G>
void micro_kernel_narrow_avx512_cg(std::size_t kc, const float* ap, const float* bp,
                                   const std::uint32_t* off, const std::uint32_t* lanes,
                                   float* acc) {
  const std::size_t tstride = kc * kMr;
  std::uint32_t lane[COLS];
  for (int j = 0; j < COLS; ++j) lane[j] = lanes[j];
  __m256 accv[G][COLS];
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < COLS; ++j) accv[g][j] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + off[p];
    __m256 bv[COLS];
    for (int j = 0; j < COLS; ++j) bv[j] = _mm256_broadcast_ss(brow + lane[j]);
    for (int g = 0; g < G; ++g) {
      const __m256 av = _mm256_loadu_ps(ap + g * tstride + p * kMr);
      for (int j = 0; j < COLS; ++j) {
        accv[g][j] = _mm256_fmadd_ps(av, bv[j], accv[g][j]);
      }
    }
  }
  float tmp[kMr];
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < COLS; ++j) {
      _mm256_storeu_ps(tmp, accv[g][j]);
      for (std::size_t r = 0; r < kMr; ++r) acc[g * kMr * kNr + r * kNr + lane[j]] = tmp[r];
    }
  }
}

template <int COLS>
void micro_kernel_narrow_avx512_c(std::size_t kc, const float* ap, const float* bp,
                                  const std::uint32_t* off, const std::uint32_t* lane,
                                  float* acc, std::size_t ntiles) {
  const std::size_t tstride = kc * kMr;
  std::size_t t = 0;
  while (t < ntiles) {
    const float* at = ap + t * tstride;
    float* ac = acc + t * kMr * kNr;
    const std::size_t g = ntiles - t;
    if (g >= 4) {
      micro_kernel_narrow_avx512_cg<COLS, 4>(kc, at, bp, off, lane, ac);
      t += 4;
    } else if (g == 3) {
      micro_kernel_narrow_avx512_cg<COLS, 3>(kc, at, bp, off, lane, ac);
      t += 3;
    } else if (g == 2) {
      micro_kernel_narrow_avx512_cg<COLS, 2>(kc, at, bp, off, lane, ac);
      t += 2;
    } else {
      micro_kernel_narrow_avx512_cg<COLS, 1>(kc, at, bp, off, lane, ac);
      t += 1;
    }
  }
}

void micro_kernel_narrow_avx512(std::size_t kc, const float* ap, const float* bp,
                                const std::uint32_t* off, const std::uint32_t* lane,
                                float* acc, std::size_t cols, std::size_t ntiles) {
  switch (cols) {
    case 1: micro_kernel_narrow_avx512_c<1>(kc, ap, bp, off, lane, acc, ntiles); break;
    case 2: micro_kernel_narrow_avx512_c<2>(kc, ap, bp, off, lane, acc, ntiles); break;
    case 3: micro_kernel_narrow_avx512_c<3>(kc, ap, bp, off, lane, acc, ntiles); break;
    default: micro_kernel_narrow_avx512_c<4>(kc, ap, bp, off, lane, acc, ntiles); break;
  }
}
#elif defined(__AVX2__) && defined(__FMA__)
void micro_kernel_half_avx2(std::size_t kc, const float* ap, const float* bp,
                            const std::uint32_t* off, float* acc) {
  __m256 c0[kMr];
  for (std::size_t r = 0; r < kMr; ++r) c0[r] = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp + off[p]);
    const float* arow = ap + p * kMr;
    for (std::size_t r = 0; r < kMr; ++r) {
      c0[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + r), b0, c0[r]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) _mm256_storeu_ps(acc + r * kNr, c0[r]);
}

/// kMr == 6 here, so the 8-lane row-tile load reads 2 floats past the last K
/// step's rows — packed_a_size reserves that slack and the extra lanes are
/// never stored. As on AVX-512, G row tiles are interleaved per pass over p
/// to feed the FMA pipeline independent chains without touching any
/// element's own chain order; with 16 ymm registers the interleave is
/// capped at 2 tiles once COLS needs more than 2 accumulators each.
template <int COLS, int G>
void micro_kernel_narrow_avx2_cg(std::size_t kc, const float* ap, const float* bp,
                                 const std::uint32_t* off, const std::uint32_t* lanes,
                                 float* acc) {
  const std::size_t tstride = kc * kMr;
  std::uint32_t lane[COLS];
  for (int j = 0; j < COLS; ++j) lane[j] = lanes[j];
  __m256 accv[G][COLS];
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < COLS; ++j) accv[g][j] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const float* brow = bp + off[p];
    __m256 bv[COLS];
    for (int j = 0; j < COLS; ++j) bv[j] = _mm256_broadcast_ss(brow + lane[j]);
    for (int g = 0; g < G; ++g) {
      const __m256 av = _mm256_loadu_ps(ap + g * tstride + p * kMr);
      for (int j = 0; j < COLS; ++j) {
        accv[g][j] = _mm256_fmadd_ps(av, bv[j], accv[g][j]);
      }
    }
  }
  float tmp[8];
  for (int g = 0; g < G; ++g) {
    for (int j = 0; j < COLS; ++j) {
      _mm256_storeu_ps(tmp, accv[g][j]);
      for (std::size_t r = 0; r < kMr; ++r) acc[g * kMr * kNr + r * kNr + lane[j]] = tmp[r];
    }
  }
}

template <int COLS>
void micro_kernel_narrow_avx2_c(std::size_t kc, const float* ap, const float* bp,
                                const std::uint32_t* off, const std::uint32_t* lane,
                                float* acc, std::size_t ntiles) {
  const std::size_t tstride = kc * kMr;
  std::size_t t = 0;
  while (t < ntiles) {
    const float* at = ap + t * tstride;
    float* ac = acc + t * kMr * kNr;
    const std::size_t g = ntiles - t;
    if constexpr (COLS <= 2) {
      if (g >= 4) {
        micro_kernel_narrow_avx2_cg<COLS, 4>(kc, at, bp, off, lane, ac);
        t += 4;
        continue;
      }
      if (g == 3) {
        micro_kernel_narrow_avx2_cg<COLS, 3>(kc, at, bp, off, lane, ac);
        t += 3;
        continue;
      }
    }
    if (g >= 2) {
      micro_kernel_narrow_avx2_cg<COLS, 2>(kc, at, bp, off, lane, ac);
      t += 2;
    } else {
      micro_kernel_narrow_avx2_cg<COLS, 1>(kc, at, bp, off, lane, ac);
      t += 1;
    }
  }
}

void micro_kernel_narrow_avx2(std::size_t kc, const float* ap, const float* bp,
                              const std::uint32_t* off, const std::uint32_t* lane,
                              float* acc, std::size_t cols, std::size_t ntiles) {
  switch (cols) {
    case 1: micro_kernel_narrow_avx2_c<1>(kc, ap, bp, off, lane, acc, ntiles); break;
    case 2: micro_kernel_narrow_avx2_c<2>(kc, ap, bp, off, lane, acc, ntiles); break;
    case 3: micro_kernel_narrow_avx2_c<3>(kc, ap, bp, off, lane, acc, ntiles); break;
    default: micro_kernel_narrow_avx2_c<4>(kc, ap, bp, off, lane, acc, ntiles); break;
  }
}
#endif

using NarrowMicroKernel = void (*)(std::size_t kc, const float* ap, const float* bp,
                                   const std::uint32_t* off, const std::uint32_t* lane,
                                   float* acc, std::size_t cols, std::size_t ntiles);

/// Runtime dispatch, resolved once per process so every call sees the same
/// kernel. The SIMD bodies are only compiled when the build targets the ISA
/// (LITHOGAN_NATIVE on capable machines); the cpu_supports guard keeps a
/// binary built that way from crashing on a lesser host before main().
MicroKernel select_micro_kernel() {
#if defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f")) return micro_kernel_avx512;
#elif defined(__AVX2__) && defined(__FMA__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_avx2;
  }
#endif
  return micro_kernel_portable;
}

MicroKernel select_micro_kernel_half() {
#if defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f")) return micro_kernel_half_avx512;
#elif defined(__AVX2__) && defined(__FMA__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_half_avx2;
  }
#endif
  return micro_kernel_half_portable;
}

NarrowMicroKernel select_micro_kernel_narrow() {
#if defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f")) return micro_kernel_narrow_avx512;
#elif defined(__AVX2__) && defined(__FMA__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return micro_kernel_narrow_avx2;
  }
#endif
  return micro_kernel_narrow_portable;
}

const MicroKernel g_micro_kernel = select_micro_kernel();
const MicroKernel g_micro_kernel_half = select_micro_kernel_half();
const NarrowMicroKernel g_micro_kernel_narrow = select_micro_kernel_narrow();

/// Mirrors select_micro_kernel()'s decision as a stable string for bench
/// metadata (see math::simd_level()).
const char* select_simd_level() {
#if defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
#elif defined(__AVX2__) && defined(__FMA__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2-fma";
  }
#endif
  return "portable";
}

/// Scalar epilogue step, formula-for-formula identical to the activation
/// modules in nn/activations.cpp so a fused GEMM is bit-exact against the
/// separate-sweeps reference.
inline float apply_act(float v, Activation act, float slope) {
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

/// Writes one register tile back to C over its valid extent. The first K
/// block applies alpha/beta (beta == 0 never reads C — it may hold NaN
/// poison); later blocks accumulate. On the last K block the optional
/// epilogue (bias + activation) runs on the freshly final values while the
/// tile is still hot; (row0, col0) locate the tile in C for bias indexing.
void write_tile(const float* acc, std::size_t rows, std::size_t cols, float alpha,
                float beta, bool first_block, bool last_block, float* c,
                std::size_t ldc, const Epilogue* epi, std::size_t row0,
                std::size_t col0) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* arow = acc + r * kNr;
    if (first_block) {
      if (beta == 0.0f) {
        for (std::size_t j = 0; j < cols; ++j) crow[j] = alpha * arow[j];
      } else {
        for (std::size_t j = 0; j < cols; ++j) {
          crow[j] = alpha * arow[j] + beta * crow[j];
        }
      }
    } else {
      for (std::size_t j = 0; j < cols; ++j) crow[j] += alpha * arow[j];
    }
  }
  if (!last_block || epi == nullptr || epi->trivial()) return;
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    if (epi->bias != nullptr && epi->bias_per_row) {
      const float b = epi->bias[row0 + r];
      for (std::size_t j = 0; j < cols; ++j) crow[j] += b;
    } else if (epi->bias != nullptr) {
      const float* b = epi->bias + col0;
      for (std::size_t j = 0; j < cols; ++j) crow[j] += b[j];
    }
    if (epi->act != Activation::kIdentity) {
      for (std::size_t j = 0; j < cols; ++j) {
        crow[j] = apply_act(crow[j], epi->act, epi->slope);
      }
    }
  }
}

/// Epilogue over a full row-major C range — the degenerate-GEMM fallback
/// (k == 0 or alpha == 0) so fused calls stay equivalent to
/// gemm + bias + activation even when no micro-kernel ever runs.
void epilogue_sweep(std::size_t m, std::size_t n, float* c, const Epilogue& epi) {
  if (epi.trivial()) return;
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      float v = row[j];
      if (epi.bias != nullptr) v += epi.bias_per_row ? epi.bias[i] : epi.bias[j];
      row[j] = apply_act(v, epi.act, epi.slope);
    }
  }
}

/// Packed GEMM over the row range [r0, r1) of C. Per row, K blocks are
/// visited in ascending order and each accumulator is one sequential chain,
/// so any row split reproduces the serial result bit for bit.
template <bool TransA>
void gemm_rows_packed(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
                      float alpha, const float* a, std::size_t lda,
                      const float* packed_b, float beta, float* c,
                      util::Workspace& ws, const Epilogue* epi = nullptr) {
  auto& apanel = ws.floats(kAPanelSlot);
  const std::size_t jtiles = (n + kNr - 1) / kNr;
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kc = std::min(kBlockK, k - p0);
    const bool first_block = p0 == 0;
    const bool last_block = p0 + kc == k;
    for (std::size_t i0 = r0; i0 < r1; i0 += kBlockM) {
      const std::size_t mc = std::min(kBlockM, r1 - i0);
      const std::size_t itiles = (mc + kMr - 1) / kMr;
      apanel.resize(itiles * kc * kMr);
      pack_a_block<TransA>(i0, mc, p0, kc, a, lda, apanel.data());
      for (std::size_t jt = 0; jt < jtiles; ++jt) {
        const float* bp = packed_b + jt * k * kNr + p0 * kNr;
        const std::size_t cols = std::min(kNr, n - jt * kNr);
        for (std::size_t t = 0; t < itiles; ++t) {
          float acc[kMr * kNr];
          g_micro_kernel(kc, apanel.data() + t * kc * kMr, bp, kPanelRowOff.data(), acc);
          const std::size_t row = i0 + t * kMr;
          write_tile(acc, std::min(kMr, r1 - row), cols, alpha, beta, first_block,
                     last_block, c + row * n + jt * kNr, n, epi, row, jt * kNr);
        }
      }
    }
  }
}

/// The column side of a pre-packed-A GEMM. B row p0 + p of column tile jt
/// starts at b + jt * tile_step + p0 * k_step + off[p0 * off_step + p]:
/// packed panels walk the constant kPanelRowOff table, an implicit B its
/// own offsets. Virtual column q = y * row_w + x is live when x < live_w and
/// lands in C column y * live_w + x (dense C: row_w = live_w = n).
struct ColumnTiles {
  const float* b;
  const std::uint32_t* off;
  std::size_t tile_step, k_step, off_step;
  std::size_t n;  ///< virtual columns
  std::size_t row_w, live_w;
  std::size_t ldc;  ///< live C columns

  static ColumnTiles packed(const float* packed_b, std::size_t n, std::size_t k) {
    return {packed_b, kPanelRowOff.data(), k * kNr, kNr, 0, n, n, n, n};
  }

  /// Lanes of tile jt the kernel must compute: up to its last live column
  /// (0 when the whole tile falls between live runs).
  std::size_t lanes(std::size_t jt) const {
    const std::size_t q0 = jt * kNr;
    const std::size_t span = std::min(kNr, n - q0);
    const std::size_t x_last = (q0 + span - 1) % row_w;
    const std::size_t dead = x_last < live_w ? 0 : x_last - live_w + 1;
    return dead < span ? span - dead : 0;
  }

  /// Lists the live lanes among tile jt's first `cols` into lane[] and
  /// returns their count — or kNarrowCols + 1 as soon as there are more.
  std::size_t narrow_lanes(std::size_t jt, std::size_t cols, std::uint32_t* lane) const {
    std::size_t live = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      if ((jt * kNr + j) % row_w >= live_w) continue;
      if (live == kNarrowCols) return kNarrowCols + 1;
      lane[live++] = static_cast<std::uint32_t>(j);
    }
    return live;
  }
};

/// Writes tile lanes [0, lanes) of virtual columns q0... into their live C
/// columns: one write_tile per live run.
void write_tile_runs(const float* acc, std::size_t rows, std::size_t q0,
                     std::size_t lanes, const ColumnTiles& ct, float alpha, float beta,
                     bool first_block, bool last_block, float* c, std::size_t row0,
                     const Epilogue* epi) {
  for (std::size_t q = q0, end = q0 + lanes; q < end;) {
    const std::size_t x = q % ct.row_w;
    if (x >= ct.live_w) {
      q += ct.row_w - x;
      continue;
    }
    const std::size_t run = std::min(ct.live_w - x, end - q);
    const std::size_t col = q / ct.row_w * ct.live_w + x;
    write_tile(acc + (q - q0), rows, run, alpha, beta, first_block, last_block,
               c + row0 * ct.ldc + col, ct.ldc, epi, row0, col);
    q += run;
  }
}

/// Same row loop against a pre-packed A (pack_a / pack_a_t). Row tiles are
/// addressed globally — chunk starts are always multiples of kMr (row_grain
/// rounds up), so (i0 / kMr) indexes the packed tile exactly and any row
/// split reproduces the serial result bit for bit.
void gemm_rows_prepacked(std::size_t r0, std::size_t r1, std::size_t m, std::size_t k,
                         float alpha, const float* packed_a, const ColumnTiles& ct,
                         float beta, float* c, const Epilogue* epi) {
  const std::size_t rt = (m + kMr - 1) / kMr;
  const std::size_t jtiles = (ct.n + kNr - 1) / kNr;
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kc = std::min(kBlockK, k - p0);
    const bool first_block = p0 == 0;
    const bool last_block = p0 + kc == k;
    const float* ablock = packed_a + p0 * rt * kMr;
    const std::uint32_t* off = ct.off + p0 * ct.off_step;
    for (std::size_t i0 = r0; i0 < r1; i0 += kBlockM) {
      const std::size_t mc = std::min(kBlockM, r1 - i0);
      const std::size_t itiles = (mc + kMr - 1) / kMr;
      const std::size_t t0 = i0 / kMr;
      for (std::size_t jt = 0; jt < jtiles; ++jt) {
        const std::size_t cols = ct.lanes(jt);
        if (cols == 0) continue;
        const float* bp = ct.b + jt * ct.tile_step + p0 * ct.k_step;
        // Thin C tiles take the narrow kernel (bit-identical, see above) so
        // serving-path GEMMs with N << kNr don't pay for the padded or dead
        // columns. The whole block's row tiles go down in one call — the
        // kernel interleaves them to keep the FMA pipeline full.
        std::uint32_t lane[kNarrowCols];
        const std::size_t live = ct.narrow_lanes(jt, cols, lane);
        if (live <= kNarrowCols) {
          float acc[((kBlockM + kMr - 1) / kMr) * kMr * kNr];
          g_micro_kernel_narrow(kc, ablock + t0 * kc * kMr, bp, off, lane, acc, live,
                                itiles);
          for (std::size_t t = 0; t < itiles; ++t) {
            const std::size_t row = i0 + t * kMr;
            write_tile_runs(acc + t * kMr * kNr, std::min(kMr, r1 - row), jt * kNr, cols,
                            ct, alpha, beta, first_block, last_block, c, row, epi);
          }
          continue;
        }
        for (std::size_t t = 0; t < itiles; ++t) {
          float acc[kMr * kNr];
          const float* ap = ablock + (t0 + t) * kc * kMr;
          if (cols <= kNr / 2) {
            g_micro_kernel_half(kc, ap, bp, off, acc);
          } else {
            g_micro_kernel(kc, ap, bp, off, acc);
          }
          const std::size_t row = i0 + t * kMr;
          write_tile_runs(acc, std::min(kMr, r1 - row), jt * kNr, cols, ct, alpha, beta,
                          first_block, last_block, c, row, epi);
        }
      }
    }
  }
}

template <bool TransA>
void gemm_driver(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, std::size_t lda, const float* packed_b, float beta,
                 float* c, util::ExecContext* exec, const Epilogue* epi = nullptr) {
  if (exec == nullptr) {
    gemm_rows_packed<TransA>(0, m, n, k, alpha, a, lda, packed_b, beta, c,
                             local_workspace(), epi);
    return;
  }
  exec->parallel_for(0, m, row_grain(exec, m, n * k), 2 * m * n * k,
                     [&](std::size_t i0, std::size_t i1, util::Workspace& ws) {
                       gemm_rows_packed<TransA>(i0, i1, n, k, alpha, a, lda, packed_b,
                                                beta, c, ws, epi);
                     });
}

/// Row-parallel driver over a pre-packed A. Task grain and the dispatch
/// cost hint follow the live columns (ct.ldc), the work actually kept.
void gemm_driver_prepacked(std::size_t m, std::size_t k, float alpha,
                           const float* packed_a, const ColumnTiles& ct, float beta,
                           float* c, util::ExecContext* exec, const Epilogue* epi) {
  if (exec == nullptr) {
    gemm_rows_prepacked(0, m, m, k, alpha, packed_a, ct, beta, c, epi);
    return;
  }
  exec->parallel_for(0, m, row_grain(exec, m, ct.ldc * k), 2 * m * ct.ldc * k,
                     [&](std::size_t i0, std::size_t i1, util::Workspace&) {
                       gemm_rows_prepacked(i0, i1, m, k, alpha, packed_a, ct, beta, c,
                                           epi);
                     });
}

/// One relaxed add per GEMM call (2*m*n*k multiply-add flops) — the
/// registry's gemm.flops makes "how much math did this run retire" a
/// snapshot read instead of a bench-harness estimate.
void count_gemm_flops(std::size_t m, std::size_t n, std::size_t k) {
  static obs::Counter& flops = obs::Registry::global().counter("gemm.flops");
  flops.add(2 * m * n * k);
}

template <bool TransA, bool TransB>
void gemm_entry(std::size_t m, std::size_t n, std::size_t k, float alpha,
                const float* a, const float* b, float beta, float* c,
                util::ExecContext* exec) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    scale_c(m, n, beta, c);
    return;
  }
  count_gemm_flops(m, n, k);
  // B is packed once on the calling thread (O(k*n), negligible next to the
  // O(m*n*k) compute) and read shared by every task.
  auto& bbuf = local_workspace().floats(kBPanelSlot);
  bbuf.resize(packed_b_size(n, k));
  pack_b_impl<TransB>(k, n, b, TransB ? k : n, bbuf.data());
  gemm_driver<TransA>(m, n, k, alpha, a, TransA ? m : k, bbuf.data(), beta, c, exec);
}

/// Packs all of logical A(m x k) into the pre-packed panel layout: K blocks
/// ascending, each holding every row tile at the offsets gemm_rows_prepacked
/// expects. Identical tile contents to what the on-the-fly path packs.
template <bool TransA>
void pack_a_full(std::size_t m, std::size_t k, const float* a, std::size_t lda,
                 float* packed) {
  const std::size_t rt = (m + kMr - 1) / kMr;
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t kc = std::min(kBlockK, k - p0);
    pack_a_block<TransA>(0, m, p0, kc, a, lda, packed + p0 * rt * kMr);
  }
}

}  // namespace

std::size_t gemm_nr() { return kNr; }

const char* simd_level() {
  static const char* level = select_simd_level();
  return level;
}

std::size_t packed_b_size(std::size_t n, std::size_t k) {
  return (n + kNr - 1) / kNr * kNr * k;
}

void pack_b(std::size_t k, std::size_t n, const float* b, float* packed) {
  pack_b_impl<false>(k, n, b, n, packed);
}

void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
          const float* b, float beta, float* c, util::ExecContext* exec) {
  gemm_entry<false, false>(m, n, k, alpha, a, b, beta, c, exec);
}

void gemm_at(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float beta, float* c, util::ExecContext* exec) {
  // A is k x m row-major, used as its transpose; packing gathers the
  // transposed rows directly, so no A^T is ever materialized.
  gemm_entry<true, false>(m, n, k, alpha, a, b, beta, c, exec);
}

void gemm_bt(std::size_t m, std::size_t n, std::size_t k, float alpha, const float* a,
             const float* b, float beta, float* c, util::ExecContext* exec) {
  // B is n x k row-major; packing gathers its transpose into the panels.
  gemm_entry<false, true>(m, n, k, alpha, a, b, beta, c, exec);
}

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* packed_b, float beta, float* c,
                 util::ExecContext* exec) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    scale_c(m, n, beta, c);
    return;
  }
  count_gemm_flops(m, n, k);
  gemm_driver<false>(m, n, k, alpha, a, k, packed_b, beta, c, exec);
}

void gemm_packed(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* packed_b, float beta, float* c,
                 const Epilogue& epi, util::ExecContext* exec) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    scale_c(m, n, beta, c);
    epilogue_sweep(m, n, c, epi);
    return;
  }
  count_gemm_flops(m, n, k);
  gemm_driver<false>(m, n, k, alpha, a, k, packed_b, beta, c, exec,
                     epi.trivial() ? nullptr : &epi);
}

std::size_t gemm_mr() { return kMr; }

std::size_t packed_a_size(std::size_t m, std::size_t k) {
  // + 8 floats of tail slack: the narrow micro-kernels load a full 8-lane
  // vector per K step, which on ISAs with kMr < 8 reads past the final row
  // tile (the extra lanes are computed but never stored).
  return (m + kMr - 1) / kMr * kMr * k + 8;
}

void pack_a(std::size_t m, std::size_t k, const float* a, float* packed) {
  pack_a_full<false>(m, k, a, k, packed);
  std::memset(packed + packed_a_size(m, k) - 8, 0, 8 * sizeof(float));
}

void pack_a_t(std::size_t m, std::size_t k, const float* a, float* packed) {
  pack_a_full<true>(m, k, a, m, packed);
  std::memset(packed + packed_a_size(m, k) - 8, 0, 8 * sizeof(float));
}

void pack_b_t(std::size_t k, std::size_t n, const float* b, float* packed) {
  pack_b_impl<true>(k, n, b, k, packed);
}

void gemm_prepacked(std::size_t m, std::size_t n, std::size_t k, float alpha,
                    const float* packed_a, const float* b, float beta, float* c,
                    const Epilogue& epi, util::ExecContext* exec) {
  if (m == 0 || n == 0) return;
  if (alpha == 0.0f || k == 0) {
    scale_c(m, n, beta, c);
    epilogue_sweep(m, n, c, epi);
    return;
  }
  count_gemm_flops(m, n, k);
  auto& bbuf = local_workspace().floats(kBPanelSlot);
  bbuf.resize(packed_b_size(n, k));
  pack_b_impl<false>(k, n, b, n, bbuf.data());
  gemm_driver_prepacked(m, k, alpha, packed_a, ColumnTiles::packed(bbuf.data(), n, k),
                        beta, c, exec, epi.trivial() ? nullptr : &epi);
}

std::size_t implicit_b_extent(std::size_t row_w, std::size_t live_w, std::size_t rows) {
  if (rows == 0 || live_w == 0) return 0;
  return packed_b_size((rows - 1) * row_w + live_w, 1);
}

void gemm_implicit(std::size_t m, std::size_t k, const float* packed_a,
                   const ImplicitB& b, float* c, const Epilogue& epi,
                   util::ExecContext* exec) {
  const std::size_t n = b.rows * b.live_w;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    scale_c(m, n, 0.0f, c);
    epilogue_sweep(m, n, c, epi);
    return;
  }
  count_gemm_flops(m, n, k);
  const ColumnTiles ct{b.b,     b.off,    kNr,      0, 1, (b.rows - 1) * b.row_w + b.live_w,
                       b.row_w, b.live_w, n};
  gemm_driver_prepacked(m, k, 1.0f, packed_a, ct, 0.0f, c, exec,
                        epi.trivial() ? nullptr : &epi);
}

}  // namespace lithogan::math

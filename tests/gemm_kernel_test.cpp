// Equivalence suite for the packed micro-kernel GEMM (src/math/gemm.cpp):
// every public variant is checked against a naive triple-loop reference over
// odd/prime shapes that stress the panel edges (partial MR/NR tiles, K and M
// cache-block boundaries), alpha/beta edge cases including beta = 0 over
// NaN-poisoned C, and thread counts {1, 2, 8}. Threaded runs must be
// bit-identical to the serial run — the determinism contract — while the
// serial run is compared to the reference with a rounding tolerance (the
// blocked kernel sums K in a different association than the triple loop).
// The row-major im2col gather that feeds the backward-pass GEMMs must equal
// a per-element reference gather byte for byte.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "math/conv.hpp"
#include "math/gemm.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

namespace lithogan {
namespace {

struct Shape {
  std::size_t m, n, k;
};

// Odd and prime extents hit every partial-tile path; the last two cross the
// kernel's M (96) and K (256) cache-block boundaries.
const Shape kShapes[] = {
    {1, 1, 1}, {3, 5, 7}, {17, 19, 23}, {31, 16, 97}, {5, 47, 11},
    {97, 35, 300}, {113, 61, 257},
};

struct AlphaBeta {
  float alpha, beta;
};

const AlphaBeta kAlphaBetas[] = {
    {1.0f, 0.0f}, {1.0f, 1.0f}, {-1.3f, 0.5f}, {0.0f, 1.0f}, {0.75f, -2.0f},
};

enum class Variant { kPlain, kAt, kBt };

std::vector<float> random_matrix(std::size_t size, util::Rng& rng) {
  std::vector<float> out(size);
  for (auto& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

// Reference C = alpha * op(A) * op(B) + beta * C, accumulated in double.
// beta == 0 must ignore C's prior contents entirely (it may be NaN).
std::vector<float> naive_gemm(Variant variant, const Shape& s, float alpha,
                              const std::vector<float>& a, const std::vector<float>& b,
                              float beta, const std::vector<float>& c0) {
  std::vector<float> c(s.m * s.n);
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t j = 0; j < s.n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < s.k; ++p) {
        const float av = variant == Variant::kAt ? a[p * s.m + i] : a[i * s.k + p];
        const float bv = variant == Variant::kBt ? b[j * s.k + p] : b[p * s.n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      const double prior =
          beta == 0.0f ? 0.0
                       : static_cast<double>(beta) * static_cast<double>(c0[i * s.n + j]);
      c[i * s.n + j] = static_cast<float>(static_cast<double>(alpha) * acc + prior);
    }
  }
  return c;
}

void run_variant(Variant variant, const Shape& s, float alpha, const std::vector<float>& a,
                 const std::vector<float>& b, float beta, const std::vector<float>& c0,
                 std::vector<float>& c, util::ExecContext* exec) {
  c = c0;
  switch (variant) {
    case Variant::kPlain:
      math::gemm(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data(), exec);
      break;
    case Variant::kAt:
      math::gemm_at(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data(), exec);
      break;
    case Variant::kBt:
      math::gemm_bt(s.m, s.n, s.k, alpha, a.data(), b.data(), beta, c.data(), exec);
      break;
  }
}

class GemmKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmKernelTest, MatchesNaiveReferenceAndIsThreadInvariant) {
  const auto variant = static_cast<Variant>(GetParam());
  util::Rng rng(1234 + GetParam());
  for (const Shape& s : kShapes) {
    // op(A) is m x k: plain/bt store A as m x k, at stores it k x m.
    const auto a = random_matrix(s.m * s.k, rng);
    // op(B) is k x n: plain stores B k x n, bt stores it n x k.
    const auto b = random_matrix(s.k * s.n, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);

    for (const AlphaBeta& ab : kAlphaBetas) {
      const auto ref = naive_gemm(variant, s, ab.alpha, a, b, ab.beta, c0);
      std::vector<float> serial;
      run_variant(variant, s, ab.alpha, a, b, ab.beta, c0, serial, nullptr);

      // Rounding tolerance: the blocked kernel reassociates the K sum.
      const double tol = 1e-5 * static_cast<double>(s.k + 1);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(serial[i], ref[i], tol)
            << "variant=" << GetParam() << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " alpha=" << ab.alpha << " beta=" << ab.beta
            << " at " << i;
      }

      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        util::ExecContext exec(threads);
        std::vector<float> parallel;
        run_variant(variant, s, ab.alpha, a, b, ab.beta, c0, parallel, &exec);
        ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                                 parallel.size() * sizeof(float)))
            << "variant=" << GetParam() << " m=" << s.m << " n=" << s.n
            << " k=" << s.k << " threads=" << threads;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, GemmKernelTest, ::testing::Values(0, 1, 2));

TEST(GemmKernelTest, BetaZeroIgnoresNaNPoisonedC) {
  util::Rng rng(77);
  const Shape s{31, 29, 67};
  const auto a = random_matrix(s.m * s.k, rng);
  const auto b = random_matrix(s.k * s.n, rng);
  const std::vector<float> poisoned(s.m * s.n,
                                    std::numeric_limits<float>::quiet_NaN());
  const std::vector<float> zeros(s.m * s.n, 0.0f);
  const auto ref = naive_gemm(Variant::kPlain, s, 0.8f, a, b, 0.0f, zeros);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    auto exec = threads == 0 ? nullptr : std::make_unique<util::ExecContext>(threads);
    std::vector<float> c = poisoned;
    math::gemm(s.m, s.n, s.k, 0.8f, a.data(), b.data(), 0.0f, c.data(), exec.get());
    const double tol = 1e-5 * static_cast<double>(s.k + 1);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_TRUE(std::isfinite(c[i])) << "NaN leaked through beta=0 at " << i;
      ASSERT_NEAR(c[i], ref[i], tol) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(GemmKernelTest, PrePackedBMatchesDenseGemm) {
  util::Rng rng(99);
  const Shape s{50, 111, 131};  // partial tiles in every dimension
  const auto a = random_matrix(s.m * s.k, rng);
  const auto b = random_matrix(s.k * s.n, rng);

  std::vector<float> dense(s.m * s.n, 0.0f);
  math::gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, dense.data());

  std::vector<float> packed(math::packed_b_size(s.n, s.k));
  math::pack_b(s.k, s.n, b.data(), packed.data());
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    auto exec = threads == 0 ? nullptr : std::make_unique<util::ExecContext>(threads);
    std::vector<float> c(s.m * s.n, 0.0f);
    math::gemm_packed(s.m, s.n, s.k, 1.0f, a.data(), packed.data(), 0.0f, c.data(),
                      exec.get());
    ASSERT_EQ(0, std::memcmp(dense.data(), c.data(), c.size() * sizeof(float)))
        << "threads=" << threads;
  }
}

struct Gather {
  std::size_t channels, height, width, kernel, stride, pad;
};

// Element (p, q) of the (C*k*k) x (Ho*Wo) column matrix, one element at a
// time: the per-element gather im2col must reproduce.
float reference_tap(const std::vector<float>& src, const Gather& g, std::size_t out_w,
                    std::size_t p, std::size_t q) {
  const std::size_t c = p / (g.kernel * g.kernel);
  const std::size_t ky = p / g.kernel % g.kernel;
  const std::size_t kx = p % g.kernel;
  const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(q / out_w * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
  const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(q % out_w * g.stride + kx) -
                            static_cast<std::ptrdiff_t>(g.pad);
  if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.height) || ix < 0 ||
      ix >= static_cast<std::ptrdiff_t>(g.width)) {
    return 0.0f;
  }
  return src[(c * g.height + static_cast<std::size_t>(iy)) * g.width +
             static_cast<std::size_t>(ix)];
}

TEST(GemmKernelTest, Im2colMatchesReferenceGather) {
  const Gather geoms[] = {
      // The nine lite conv geometries: center CNN, then generator L0-L5.
      {3, 64, 64, 7, 1, 3},
      {8, 32, 32, 3, 1, 1},
      {16, 16, 16, 3, 1, 1},
      {3, 64, 64, 5, 2, 2},
      {16, 32, 32, 5, 2, 2},
      {32, 16, 16, 5, 2, 2},
      {64, 8, 8, 5, 2, 2},
      {128, 4, 4, 5, 2, 2},
      {128, 2, 2, 5, 2, 2},
      // Pad >= kernel: whole tap rows and columns in the padding.
      {2, 5, 6, 3, 1, 3},
      {1, 4, 3, 2, 2, 2},
      // Stride > kernel: input pixels no tap reads.
      {2, 11, 13, 2, 3, 0},
      {3, 10, 9, 2, 3, 1},
      // Ho*Wo > NR with a ragged last tile (42 and 117 columns).
      {3, 13, 11, 5, 2, 2},
      {2, 9, 13, 3, 1, 1},
      // 1x1 output.
      {4, 3, 3, 3, 1, 0},
  };
  util::Rng rng(5);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Gather& g : geoms) {
    const std::size_t out_h = math::conv_out_size(g.height, g.kernel, g.stride, g.pad);
    const std::size_t out_w = math::conv_out_size(g.width, g.kernel, g.stride, g.pad);
    const std::size_t rows = g.channels * g.kernel * g.kernel;
    const std::size_t cols = out_h * out_w;
    const auto src = random_matrix(g.channels * g.height * g.width, rng);

    // Row-major: (p, q) at p * cols + q.
    std::vector<float> want_col(rows * cols);
    for (std::size_t p = 0; p < rows; ++p) {
      for (std::size_t q = 0; q < cols; ++q) {
        want_col[p * cols + q] = reference_tap(src, g, out_w, p, q);
      }
    }

    std::vector<float> col(want_col.size(), nan);
    math::im2col(src.data(), g.channels, g.height, g.width, g.kernel, g.stride, g.pad,
                 col.data());
    EXPECT_EQ(0, std::memcmp(want_col.data(), col.data(), col.size() * sizeof(float)))
        << "im2col C=" << g.channels << " " << g.height << "x" << g.width
        << " k=" << g.kernel << " s=" << g.stride << " p=" << g.pad;
  }
}

}  // namespace
}  // namespace lithogan

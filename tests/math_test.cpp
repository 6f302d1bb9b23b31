#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <tuple>
#include <vector>

#include "math/fft.hpp"
#include "math/gemm.hpp"
#include "math/histogram.hpp"
#include "math/statistics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lm = lithogan::math;
using lm::Complex;

// ---------------------------------------------------------------------------
// FFT
// ---------------------------------------------------------------------------

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(lm::is_power_of_two(1));
  EXPECT_TRUE(lm::is_power_of_two(64));
  EXPECT_FALSE(lm::is_power_of_two(0));
  EXPECT_FALSE(lm::is_power_of_two(48));
  EXPECT_EQ(lm::next_power_of_two(1), 1u);
  EXPECT_EQ(lm::next_power_of_two(65), 128u);
  EXPECT_EQ(lm::next_power_of_two(128), 128u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> data(12, Complex(1.0, 0.0));
  EXPECT_THROW(lm::fft(data, false), lithogan::util::InvalidArgument);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<Complex> data(8, Complex(0.0, 0.0));
  data[0] = Complex(1.0, 0.0);
  lm::fft(data, false);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  std::vector<Complex> data(16, Complex(2.0, 0.0));
  lm::fft(data, false);
  EXPECT_NEAR(data[0].real(), 32.0, 1e-9);
  for (std::size_t i = 1; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-9);
  }
}

class FftSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeSweep, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  lithogan::util::Rng rng(n);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  const auto expected = lm::naive_dft(data, false);
  auto actual = data;
  lm::fft(actual, false);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(actual[i].real(), expected[i].real(), 1e-8) << "bin " << i;
    EXPECT_NEAR(actual[i].imag(), expected[i].imag(), 1e-8) << "bin " << i;
  }
}

TEST_P(FftSizeSweep, InverseRecoversInput) {
  const std::size_t n = GetParam();
  lithogan::util::Rng rng(n + 100);
  std::vector<Complex> data(n);
  for (auto& v : data) v = Complex(rng.uniform(-5, 5), rng.uniform(-5, 5));
  auto transformed = data;
  lm::fft(transformed, false);
  lm::fft(transformed, true);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(transformed[i].real(), data[i].real(), 1e-9);
    EXPECT_NEAR(transformed[i].imag(), data[i].imag(), 1e-9);
  }
}

TEST_P(FftSizeSweep, ParsevalEnergyConserved) {
  const std::size_t n = GetParam();
  lithogan::util::Rng rng(n + 200);
  std::vector<Complex> data(n);
  double time_energy = 0.0;
  for (auto& v : data) {
    v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    time_energy += std::norm(v);
  }
  auto spectrum = data;
  lm::fft(spectrum, false);
  double freq_energy = 0.0;
  for (const auto& v : spectrum) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n), 1e-6 * time_energy * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft2d, InverseRecoversInput) {
  const std::size_t rows = 8;
  const std::size_t cols = 16;
  lithogan::util::Rng rng(1);
  std::vector<Complex> grid(rows * cols);
  for (auto& v : grid) v = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  auto copy = grid;
  lm::fft2d(copy, rows, cols, false);
  lm::fft2d(copy, rows, cols, true);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(copy[i].real(), grid[i].real(), 1e-9);
    EXPECT_NEAR(copy[i].imag(), grid[i].imag(), 1e-9);
  }
}

TEST(Fft2d, SeparableSinusoidHasSinglePeak) {
  const std::size_t n = 16;
  std::vector<Complex> grid(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double phase = 2.0 * M_PI * (2.0 * x + 3.0 * y) / static_cast<double>(n);
      grid[y * n + x] = Complex(std::cos(phase), std::sin(phase));
    }
  }
  lm::fft2d(grid, n, n, false);
  // The (kx=2, ky=3) bin holds all the energy.
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double mag = std::abs(grid[y * n + x]);
      if (x == 2 && y == 3) {
        EXPECT_NEAR(mag, static_cast<double>(n * n), 1e-6);
      } else {
        EXPECT_NEAR(mag, 0.0, 1e-6);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

namespace {
void reference_gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = acc;
    }
  }
}
}  // namespace

class GemmShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmShapeSweep, MatchesReference) {
  const auto [m, n, k] = GetParam();
  lithogan::util::Rng rng(m * 31 + n * 7 + k);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> expected(m * n);
  reference_gemm(m, n, k, a.data(), b.data(), expected.data());

  std::vector<float> actual(m * n, 99.0f);
  lm::gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, actual.data());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], 1e-4f) << "i=" << i;
  }
}

TEST_P(GemmShapeSweep, TransposedVariantsMatch) {
  const auto [m, n, k] = GetParam();
  lithogan::util::Rng rng(m + n + k);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> expected(m * n);
  reference_gemm(m, n, k, a.data(), b.data(), expected.data());

  // gemm_at: store A transposed (k x m) and ask for A^T * B.
  std::vector<float> a_t(k * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) a_t[p * m + i] = a[i * k + p];
  }
  std::vector<float> actual(m * n, 0.0f);
  lm::gemm_at(m, n, k, 1.0f, a_t.data(), b.data(), 0.0f, actual.data());
  for (std::size_t i = 0; i < actual.size(); ++i) EXPECT_NEAR(actual[i], expected[i], 1e-4f);

  // gemm_bt: store B transposed (n x k) and ask for A * B^T.
  std::vector<float> b_t(n * k);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) b_t[j * k + p] = b[p * n + j];
  }
  std::vector<float> actual2(m * n, -7.0f);
  lm::gemm_bt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, actual2.data());
  for (std::size_t i = 0; i < actual2.size(); ++i) EXPECT_NEAR(actual2[i], expected[i], 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeSweep,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(1, 64, 32),
                      std::make_tuple(64, 1, 32), std::make_tuple(33, 65, 129),
                      std::make_tuple(70, 70, 300)));

TEST(Gemm, AlphaBetaSemantics) {
  const float a[4] = {1, 2, 3, 4};   // 2x2
  const float b[4] = {5, 6, 7, 8};   // 2x2
  float c[4] = {1, 1, 1, 1};
  // C = 2*A*B + 3*C
  lm::gemm(2, 2, 2, 2.0f, a, b, 3.0f, c);
  EXPECT_FLOAT_EQ(c[0], 2 * (1 * 5 + 2 * 7) + 3);
  EXPECT_FLOAT_EQ(c[1], 2 * (1 * 6 + 2 * 8) + 3);
  EXPECT_FLOAT_EQ(c[2], 2 * (3 * 5 + 4 * 7) + 3);
  EXPECT_FLOAT_EQ(c[3], 2 * (3 * 6 + 4 * 8) + 3);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

TEST(Statistics, MeanAndStddev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(lm::mean(xs), 5.0);
  EXPECT_NEAR(lm::stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Statistics, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(lm::mean({}), 0.0);
  EXPECT_DOUBLE_EQ(lm::stddev({}), 0.0);
  const std::vector<double> one = {3.0};
  EXPECT_DOUBLE_EQ(lm::mean(one), 3.0);
  EXPECT_DOUBLE_EQ(lm::stddev(one), 0.0);
}

TEST(Statistics, PercentileInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(lm::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(lm::percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(lm::percentile(xs, 50), 2.5);
}

TEST(Statistics, PercentileValidation) {
  EXPECT_THROW(lm::percentile({}, 50), lithogan::util::InvalidArgument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(lm::percentile(xs, 101), lithogan::util::InvalidArgument);
}

TEST(Statistics, SummaryFields) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const auto s = lm::summarize(xs);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BinsValuesCorrectly) {
  lm::Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(1), 1);
  EXPECT_EQ(h.count(4), 1);
  EXPECT_EQ(h.total(), 3);
}

TEST(Histogram, OutOfRangeClampsToEdgeBins) {
  lm::Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(42.0);
  EXPECT_EQ(h.count(0), 1);
  EXPECT_EQ(h.count(3), 1);
}

TEST(Histogram, BinCenters) {
  lm::Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
}

TEST(Histogram, AsciiRenderingContainsCounts) {
  lm::Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  const std::string text = h.ascii("EDE");
  EXPECT_NE(text.find("EDE"), std::string::npos);
  EXPECT_NE(text.find("n=3"), std::string::npos);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(lm::Histogram(1.0, 1.0, 4), lithogan::util::InvalidArgument);
  EXPECT_THROW(lm::Histogram(0.0, 1.0, 0), lithogan::util::InvalidArgument);
}

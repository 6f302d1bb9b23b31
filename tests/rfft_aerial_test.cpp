// Equivalence tests for the fast paths of the imaging stack: the
// real-to-complex forward FFT (math::fft2d_real_forward), the
// pupil-support-pruned SOCS transfer on the band-limited imaging grid in
// litho::OpticalModel, and the resist blur of a band-tagged aerial on that
// grid (litho::diffuse, and litho::diffuse_band from the band samples
// alone). All must agree with the dense full-grid
// computation to <= 1e-12 relative error — the fast paths exploit exact
// structure (Hermitian spectra, zeros outside the pupil, an intensity
// spectrum inside the imaging grid's band), so any larger deviation is a
// bug, not rounding.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <tuple>
#include <vector>

#include "litho/optical.hpp"
#include "litho/process.hpp"
#include "litho/resist.hpp"
#include "litho/source.hpp"
#include "math/fft.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

namespace lithogan {
namespace {

std::vector<double> random_grid(std::size_t size, util::Rng& rng) {
  std::vector<double> out(size);
  for (auto& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

double max_abs(const std::vector<math::Complex>& v) {
  double m = 0.0;
  for (const auto& z : v) m = std::max(m, std::abs(z));
  return m;
}

TEST(RealFftTest, MatchesDenseComplexForward) {
  util::Rng rng(31);
  // Non-square so a transposed row/column mix-up cannot cancel out.
  const std::size_t rows = 32, cols = 64;
  const auto data = random_grid(rows * cols, rng);

  std::vector<math::Complex> dense(data.begin(), data.end());
  math::fft2d(dense, rows, cols, /*inverse=*/false);
  const auto fast = math::fft2d_real_forward(data, rows, cols);

  const double scale = max_abs(dense);
  ASSERT_EQ(dense.size(), fast.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_LE(std::abs(dense[i] - fast[i]), 1e-12 * scale) << "bin " << i;
  }
}

TEST(RealFftTest, RoundTripRecoversInput) {
  util::Rng rng(32);
  const std::size_t rows = 64, cols = 16;
  const auto data = random_grid(rows * cols, rng);

  auto spectrum = math::fft2d_real_forward(data, rows, cols);
  math::fft2d(spectrum, rows, cols, /*inverse=*/true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(spectrum[i].real(), data[i], 1e-12) << "pixel " << i;
    ASSERT_NEAR(spectrum[i].imag(), 0.0, 1e-12) << "pixel " << i;
  }
}

TEST(RealFftTest, ThreadCountDoesNotChangeBits) {
  util::Rng rng(33);
  const std::size_t rows = 32, cols = 32;
  const auto data = random_grid(rows * cols, rng);

  const auto serial = math::fft2d_real_forward(data, rows, cols);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    util::ExecContext exec(threads);
    const auto parallel = math::fft2d_real_forward(data, rows, cols, &exec);
    ASSERT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                             serial.size() * sizeof(math::Complex)))
        << "threads=" << threads;
  }
}

// Dense-path SOCS reference: recomputes every transfer function on the full
// grid (exactly the pre-pruning formulas) and images through the dense
// complex FFT. OpticalModel must reproduce this to rounding error.
litho::FieldGrid dense_aerial_reference(const litho::OpticalConfig& optical,
                                        const litho::GridConfig& grid,
                                        const litho::FieldGrid& mask) {
  const std::size_t n = grid.pixels;
  const std::size_t n2 = n * n;
  const double dx = grid.pixel_nm();
  const double cutoff = optical.numerical_aperture / optical.wavelength_nm;
  const auto source = litho::sample_source(optical);
  const std::size_t planes = std::max<std::size_t>(1, optical.focus_planes);

  const auto bin_freq = [&](std::size_t i) {
    const auto si = static_cast<std::ptrdiff_t>(i);
    const auto half = static_cast<std::ptrdiff_t>(n / 2);
    const std::ptrdiff_t signed_i = si < half ? si : si - static_cast<std::ptrdiff_t>(n);
    return static_cast<double>(signed_i) / (static_cast<double>(n) * dx);
  };

  std::vector<math::Complex> spectrum(mask.values.begin(), mask.values.end());
  math::fft2d(spectrum, n, n, /*inverse=*/false);

  litho::FieldGrid out;
  out.pixels = n;
  out.extent_nm = grid.extent_nm;
  out.values.assign(n2, 0.0);
  double open_field = 0.0;

  for (std::size_t k = 0; k < source.size() * planes; ++k) {
    const std::size_t zi = k / source.size();
    const litho::SourcePoint& s = source[k % source.size()];
    const double z =
        optical.focus_offset_nm +
        (static_cast<double>(zi) - static_cast<double>(planes - 1) / 2.0) *
            optical.focus_step_nm;
    const double sfx = s.fx * cutoff;
    const double sfy = s.fy * cutoff;
    const double weight = s.weight / static_cast<double>(planes);

    std::vector<math::Complex> t(n2, {0.0, 0.0});
    for (std::size_t iy = 0; iy < n; ++iy) {
      const double fy = bin_freq(iy) + sfy;
      for (std::size_t ix = 0; ix < n; ++ix) {
        const double fx = bin_freq(ix) + sfx;
        const double rho2 = (fx * fx + fy * fy) / (cutoff * cutoff);
        if (rho2 > 1.0) continue;
        double phase =
            -std::numbers::pi * optical.wavelength_nm * z * (fx * fx + fy * fy);
        if (optical.coma_x_waves != 0.0 || optical.coma_y_waves != 0.0) {
          const double rho = std::sqrt(rho2);
          const double radial = 3.0 * rho * rho2 - 2.0 * rho;
          const double inv = rho > 1e-12 ? 1.0 / (rho * cutoff) : 0.0;
          phase += 2.0 * std::numbers::pi * radial *
                   (optical.coma_x_waves * fx * inv + optical.coma_y_waves * fy * inv);
        }
        t[iy * n + ix] = math::Complex(std::cos(phase), std::sin(phase));
      }
    }
    open_field += weight * std::norm(t[0]);

    std::vector<math::Complex> field(n2);
    for (std::size_t i = 0; i < n2; ++i) field[i] = spectrum[i] * t[i];
    math::fft2d(field, n, n, /*inverse=*/true);
    for (std::size_t i = 0; i < n2; ++i) {
      out.values[i] += weight * std::norm(field[i]);
    }
  }

  for (auto& v : out.values) v /= open_field;
  return out;
}

litho::FieldGrid test_mask(const litho::GridConfig& grid) {
  // A few contact-like openings, off-center so no symmetry hides errors.
  const std::vector<geometry::Rect> openings = {
      {{200.0, 220.0}, {260.0, 280.0}},
      {{420.0, 200.0}, {480.0, 260.0}},
      {{300.0, 460.0}, {360.0, 520.0}},
      {{560.0, 560.0}, {640.0, 620.0}},
  };
  return litho::rasterize_mask(openings, grid);
}

// (source shape, grid): the three grids cover a 2x band-limited imaging
// grid, an 8x one (the 256-px clip), and one where the imaging grid is the
// simulation grid.
struct AerialGrid {
  std::size_t pixels;
  std::size_t imaging_pixels;
};
constexpr AerialGrid kAerialGrids[] = {{64, 32}, {256, 32}, {32, 32}};

class PrunedAerialTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PrunedAerialTest, MatchesDenseComplexPath) {
  const auto [shape, grid_index] = GetParam();
  litho::GridConfig grid;
  grid.pixels = kAerialGrids[grid_index].pixels;
  grid.extent_nm = 1024.0;

  litho::OpticalConfig optical;
  optical.source_shape = shape == 0 ? litho::SourceShape::kAnnular
                                    : litho::SourceShape::kQuadrupole;
  optical.source_rings = 2;
  optical.source_points_per_ring = 8;
  optical.focus_planes = 2;
  optical.focus_step_nm = 40.0;
  optical.coma_x_waves = 0.035;
  optical.coma_y_waves = 0.020;

  const litho::FieldGrid mask = test_mask(grid);
  const litho::FieldGrid reference = dense_aerial_reference(optical, grid, mask);

  litho::OpticalModel model(optical, grid);
  const std::size_t m = kAerialGrids[grid_index].imaging_pixels;
  ASSERT_EQ(model.imaging_pixels(), m);
  const litho::FieldGrid pruned = model.aerial_image(mask);
  EXPECT_EQ(pruned.band_pixels, m < grid.pixels ? m : 0);

  double peak = 0.0;
  for (const double v : reference.values) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0);
  ASSERT_EQ(pruned.values.size(), reference.values.size());
  for (std::size_t i = 0; i < reference.values.size(); ++i) {
    ASSERT_LE(std::abs(pruned.values[i] - reference.values[i]), 1e-12 * peak)
        << "pixel " << i;
  }

  // Every (n/m)-th pixel holds its band sample / (n/m)^2 exactly (with no
  // band, the samples are the aerial).
  const std::vector<double> samples = model.band_intensity(mask);
  ASSERT_EQ(samples.size(), m * m);
  const std::size_t step = grid.pixels / m;
  const auto unscale = static_cast<double>(step * step);
  for (std::size_t y = 0; y < m; ++y) {
    for (std::size_t x = 0; x < m; ++x) {
      ASSERT_EQ(pruned.at(x * step, y * step), samples[y * m + x] / unscale)
          << "sample (" << x << ", " << y << ")";
    }
  }

  // The resist blur of the tagged aerial runs on its band grid and must
  // match the full-grid blur of the same values with the tag cleared.
  constexpr double kSigmaNm = 15.0;
  litho::FieldGrid untagged = pruned;
  untagged.band_pixels = 0;
  const litho::FieldGrid full_blur = litho::diffuse(untagged, kSigmaNm);
  const litho::FieldGrid band_blur = litho::diffuse(pruned, kSigmaNm);
  EXPECT_EQ(band_blur.band_pixels, pruned.band_pixels);
  double blur_peak = 0.0;
  for (const double v : full_blur.values) blur_peak = std::max(blur_peak, std::abs(v));
  ASSERT_GT(blur_peak, 0.0);
  ASSERT_EQ(band_blur.values.size(), full_blur.values.size());
  for (std::size_t i = 0; i < full_blur.values.size(); ++i) {
    ASSERT_LE(std::abs(band_blur.values[i] - full_blur.values[i]), 1e-12 * blur_peak)
        << "blurred pixel " << i;
  }
  // The blur of the band samples, which never forms the aerial, is the
  // band blur of the aerial bit for bit.
  if (m < grid.pixels) {
    const litho::FieldGrid sample_blur = litho::diffuse_band(samples, m, grid, kSigmaNm);
    EXPECT_EQ(sample_blur.band_pixels, m);
    ASSERT_EQ(0, std::memcmp(band_blur.values.data(), sample_blur.values.data(),
                             band_blur.values.size() * sizeof(double)));
  }

  // The pruned aerial and its blur must also be bit-identical across thread
  // counts. The dispatch gate is off so every kernel window, transform and
  // interpolation stage really fans out.
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::ExecContext exec(threads);
    exec.pool().set_dispatch_cost(0);
    litho::OpticalModel parallel_model(optical, grid, &exec);
    const litho::FieldGrid parallel = parallel_model.aerial_image(mask);
    ASSERT_EQ(0, std::memcmp(pruned.values.data(), parallel.values.data(),
                             pruned.values.size() * sizeof(double)))
        << "threads=" << threads;
    const litho::FieldGrid parallel_blur = litho::diffuse(parallel, kSigmaNm, &exec);
    ASSERT_EQ(0, std::memcmp(band_blur.values.data(), parallel_blur.values.data(),
                             band_blur.values.size() * sizeof(double)))
        << "blur threads=" << threads;
    if (m < grid.pixels) {
      const litho::FieldGrid sample_blur = litho::diffuse_band(
          parallel_model.band_intensity(mask), m, grid, kSigmaNm, &exec);
      ASSERT_EQ(0, std::memcmp(band_blur.values.data(), sample_blur.values.data(),
                               band_blur.values.size() * sizeof(double)))
          << "sample blur threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SourcesAndGrids, PrunedAerialTest,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace lithogan

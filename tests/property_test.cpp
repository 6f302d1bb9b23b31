// Cross-module property tests: invariants that must hold over parameter
// sweeps rather than single hand-picked cases (TEST_P suites).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/gan.hpp"
#include "core/networks.hpp"
#include "core/tensor_ops.hpp"
#include "eval/metrics.hpp"
#include "geometry/marching_squares.hpp"
#include "geometry/rasterize.hpp"
#include "image/ops.hpp"
#include "litho/resist.hpp"
#include "litho/simulator.hpp"
#include "math/conv.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

using namespace lithogan;

namespace {
struct QuietLogs {
  QuietLogs() { util::set_log_level(util::LogLevel::kWarn); }
} const quiet_logs;
}  // namespace

// ---------------------------------------------------------------------------
// im2col/col2im adjointness across convolution geometries
// ---------------------------------------------------------------------------

class Im2colGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(Im2colGeometry, AdjointIdentityHolds) {
  const auto [kernel, stride, pad] = GetParam();
  const std::size_t C = 2;
  const std::size_t H = 9;
  const std::size_t W = 11;
  if (H + 2 * pad < kernel) GTEST_SKIP();
  const std::size_t oh = math::conv_out_size(H, kernel, stride, pad);
  const std::size_t ow = math::conv_out_size(W, kernel, stride, pad);

  util::Rng rng(kernel * 100 + stride * 10 + pad);
  std::vector<float> x(C * H * W);
  std::vector<float> y(C * kernel * kernel * oh * ow);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> col(y.size());
  math::im2col(x.data(), C, H, W, kernel, stride, pad, col.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) lhs += static_cast<double>(col[i]) * y[i];

  std::vector<float> back(x.size(), 0.0f);
  math::col2im(y.data(), C, H, W, kernel, stride, pad, back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colGeometry,
    ::testing::Values(std::make_tuple(1, 1, 0), std::make_tuple(3, 1, 1),
                      std::make_tuple(3, 2, 1), std::make_tuple(5, 2, 2),
                      std::make_tuple(5, 3, 2), std::make_tuple(7, 1, 3),
                      std::make_tuple(2, 2, 0), std::make_tuple(4, 2, 1)));

// ---------------------------------------------------------------------------
// Gaussian diffusion: semigroup property
// ---------------------------------------------------------------------------

class DiffusionSemigroup : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(DiffusionSemigroup, ComposedBlursEqualSingleBlur) {
  const auto [s1, s2] = GetParam();
  litho::FieldGrid field;
  field.pixels = 64;
  field.extent_nm = 512.0;
  field.values.assign(64 * 64, 0.0);
  util::Rng rng(7);
  for (int k = 0; k < 5; ++k) {
    const auto x = static_cast<std::size_t>(rng.uniform_int(16, 48));
    const auto y = static_cast<std::size_t>(rng.uniform_int(16, 48));
    field.values[y * 64 + x] = rng.uniform(0.5, 1.5);
  }
  const auto twice = litho::diffuse(litho::diffuse(field, s1), s2);
  const auto once = litho::diffuse(field, std::sqrt(s1 * s1 + s2 * s2));
  for (std::size_t i = 0; i < field.values.size(); ++i) {
    EXPECT_NEAR(twice.values[i], once.values[i], 1e-9);
  }
}

// The same property on a band-tagged aerial image: both compositions run
// the blur on the aerial's imaging grid, and the composed blur keeps the tag.
TEST_P(DiffusionSemigroup, ComposedBandBlursEqualSingleBlur) {
  const auto [s1, s2] = GetParam();
  auto process = litho::ProcessConfig::n10();
  process.grid.pixels = 64;
  process.grid.extent_nm = 512.0;
  litho::OpticalModel optics(process.optical, process.grid);
  const auto aerial = optics.aerial_image(litho::rasterize_mask(
      {geometry::Rect::from_center({200.0, 260.0}, 60.0, 60.0),
       geometry::Rect::from_center({330.0, 250.0}, 60.0, 60.0)},
      process.grid));
  ASSERT_GT(aerial.band_pixels, 0u);
  ASSERT_LT(aerial.band_pixels, aerial.pixels);
  const auto twice = litho::diffuse(litho::diffuse(aerial, s1), s2);
  const auto once = litho::diffuse(aerial, std::sqrt(s1 * s1 + s2 * s2));
  EXPECT_EQ(twice.band_pixels, aerial.band_pixels);
  for (std::size_t i = 0; i < aerial.values.size(); ++i) {
    EXPECT_NEAR(twice.values[i], once.values[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sigmas, DiffusionSemigroup,
                         ::testing::Values(std::make_pair(5.0, 12.0),
                                           std::make_pair(10.0, 10.0),
                                           std::make_pair(0.0, 20.0),
                                           std::make_pair(25.0, 3.0)));

// ---------------------------------------------------------------------------
// Development threshold: printed area shrinks monotonically with threshold
// ---------------------------------------------------------------------------

TEST(ResistMonotonicity, HigherThresholdPrintsLess) {
  auto process = litho::ProcessConfig::n10();
  process.grid.pixels = 128;
  process.optical.source_rings = 1;
  process.optical.source_points_per_ring = 8;
  litho::OpticalModel optics(process.optical, process.grid);
  const double c = process.grid.extent_nm / 2.0;
  const auto aerial = optics.aerial_image(litho::rasterize_mask(
      {geometry::Rect::from_center({c, c}, 70.0, 70.0)}, process.grid));

  double prev_area = 1e300;
  for (const double thr : {0.05, 0.08, 0.11, 0.14, 0.17}) {
    litho::ResistConfig rc = process.resist;
    rc.threshold = thr;
    litho::ConstantThresholdResist resist(rc);
    const auto dev = resist.develop(aerial);
    const auto contours = geometry::extract_contours(dev.values, dev.pixels,
                                                     dev.pixels, 0.0);
    const double area =
        contours.empty() ? 0.0 : geometry::largest_contour(contours).area();
    EXPECT_LE(area, prev_area + 1e-9) << "threshold " << thr;
    prev_area = area;
  }
  EXPECT_LT(prev_area, 1e300);  // at least one threshold printed
}

// ---------------------------------------------------------------------------
// Aerial image: bounded by the open-field level (passive optics)
// ---------------------------------------------------------------------------

TEST(OpticalBounds, IntensityStaysNearOpenFieldBound) {
  auto process = litho::ProcessConfig::n10();
  process.grid.pixels = 128;
  process.optical.source_rings = 2;
  process.optical.source_points_per_ring = 8;
  litho::OpticalModel optics(process.optical, process.grid);
  util::Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<geometry::Rect> mask;
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int k = 0; k < n; ++k) {
      mask.push_back(geometry::Rect::from_center(
          {rng.uniform(300, 700), rng.uniform(300, 700)}, rng.uniform(40, 200),
          rng.uniform(40, 200)));
    }
    const auto aerial = optics.aerial_image(litho::rasterize_mask(mask, process.grid));
    for (const double v : aerial.values) {
      EXPECT_GE(v, -1e-9);
      // Coherent ringing can overshoot 1.0 slightly but never wildly.
      EXPECT_LE(v, 1.6);
    }
  }
}

// ---------------------------------------------------------------------------
// Contours <-> rasterization consistency across random blob layouts
// ---------------------------------------------------------------------------

class ContourRasterSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ContourRasterSweep, AreaAgreesWithPixelCount) {
  util::Rng rng(GetParam());
  const std::size_t n = 96;
  std::vector<double> grid(n * n, -1.0);
  const int blobs = static_cast<int>(rng.uniform_int(1, 4));
  for (int b = 0; b < blobs; ++b) {
    const double cx = rng.uniform(20, 76);
    const double cy = rng.uniform(20, 76);
    const double r = rng.uniform(5, 11);
    for (std::size_t y = 0; y < n; ++y) {
      for (std::size_t x = 0; x < n; ++x) {
        const double d = std::hypot(static_cast<double>(x) - cx,
                                    static_cast<double>(y) - cy);
        grid[y * n + x] = std::max(grid[y * n + x], r - d);
      }
    }
  }
  const auto contours = geometry::extract_contours(grid, n, n, 0.0);
  ASSERT_FALSE(contours.empty());
  double contour_area = 0.0;
  for (const auto& c : contours) contour_area += c.area();

  const auto mask = geometry::rasterize(contours, n, n);
  double pixels = 0.0;
  for (const auto v : mask) pixels += v;
  // Overlapping blobs merge into single contours; the two area measures
  // agree within the pixelization error of the boundary.
  EXPECT_NEAR(pixels, contour_area, 0.15 * contour_area + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContourRasterSweep, ::testing::Range(100u, 110u));

// ---------------------------------------------------------------------------
// EDE behaves like a translation metric on rigid shifts
// ---------------------------------------------------------------------------

class EdeShiftSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(EdeShiftSweep, MeanEqualsHalfManhattanShift) {
  const auto [dx, dy] = GetParam();
  image::Image img(1, 48, 48);
  for (std::size_t y = 18; y < 30; ++y) {
    for (std::size_t x = 16; x < 32; ++x) img.at(0, y, x) = 1.0f;
  }
  const auto shifted = image::shift(img, dx, dy);
  const auto r = eval::edge_displacement_error(img, shifted);
  ASSERT_TRUE(r.valid);
  // A rigid shift moves both x-edges by |dx| and both y-edges by |dy|.
  EXPECT_DOUBLE_EQ(r.mean(), (std::abs(dx) + std::abs(dy)) / 2.0);
  EXPECT_DOUBLE_EQ(r.max(), std::max(std::abs(dx), std::abs(dy)));
}

INSTANTIATE_TEST_SUITE_P(Shifts, EdeShiftSweep,
                         ::testing::Values(std::make_pair(0, 0), std::make_pair(3, 0),
                                           std::make_pair(0, -4), std::make_pair(2, 2),
                                           std::make_pair(-5, 3),
                                           std::make_pair(7, -6)));

// ---------------------------------------------------------------------------
// IoU/pixel accuracy degrade monotonically with shift distance
// ---------------------------------------------------------------------------

TEST(MetricMonotonicity, LargerShiftsScoreWorse) {
  image::Image img(1, 48, 48);
  for (std::size_t y = 16; y < 32; ++y) {
    for (std::size_t x = 16; x < 32; ++x) img.at(0, y, x) = 1.0f;
  }
  double prev_iou = 1.1;
  double prev_acc = 1.1;
  for (const int shift : {0, 2, 4, 8, 12}) {
    const auto m = eval::pixel_metrics(img, image::shift(img, shift, 0));
    EXPECT_LT(m.mean_iou, prev_iou);
    EXPECT_LE(m.pixel_accuracy, prev_acc + 1e-12);
    prev_iou = m.mean_iou;
    prev_acc = m.pixel_accuracy;
  }
}

// ---------------------------------------------------------------------------
// GAN batch-size sweep: one training step works for any batch size
// ---------------------------------------------------------------------------

class GanBatchSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GanBatchSweep, TrainStepHandlesBatch) {
  const std::size_t batch = GetParam();
  core::LithoGanConfig cfg = core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 4;
  cfg.max_channels = 16;
  util::Rng rng(50 + batch);
  core::CganTrainer trainer(cfg, core::build_generator(cfg, rng),
                            core::build_discriminator(cfg, rng));
  const auto x = nn::Tensor::randn({batch, 3, 16, 16}, rng, 0.5f);
  const auto y = nn::Tensor::randn({batch, 1, 16, 16}, rng, 0.5f);
  const auto losses = trainer.train_step(x, y);
  EXPECT_TRUE(std::isfinite(losses.d_loss));
  EXPECT_TRUE(std::isfinite(losses.g_adv_loss));
  EXPECT_TRUE(std::isfinite(losses.g_l1_loss));
  const auto out = trainer.predict(x);
  EXPECT_EQ(out.dim(0), batch);
}

INSTANTIATE_TEST_SUITE_P(Batches, GanBatchSweep, ::testing::Values(1u, 2u, 3u, 4u, 7u));

// ---------------------------------------------------------------------------
// Image shift round trip: shift(x, d) then shift(x, -d) restores interior
// ---------------------------------------------------------------------------

class ShiftRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShiftRoundTrip, InteriorRestored) {
  const auto [dx, dy] = GetParam();
  util::Rng rng(3);
  image::Image img(1, 32, 32);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform(0, 1));
  const auto back = image::shift(image::shift(img, dx, dy), -dx, -dy);
  for (std::size_t y = 8; y < 24; ++y) {
    for (std::size_t x = 8; x < 24; ++x) {
      EXPECT_FLOAT_EQ(back.at(0, y, x), img.at(0, y, x));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, ShiftRoundTrip,
                         ::testing::Values(std::make_pair(1, 0), std::make_pair(0, 1),
                                           std::make_pair(5, -3),
                                           std::make_pair(-7, 7)));

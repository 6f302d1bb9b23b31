#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "geometry/marching_squares.hpp"
#include "litho/optical.hpp"
#include "litho/process.hpp"
#include "litho/resist.hpp"
#include "litho/simulator.hpp"
#include "litho/source.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/rng.hpp"

namespace ll = lithogan::litho;
namespace lg = lithogan::geometry;

namespace {

ll::ProcessConfig small_process() {
  // 128-pixel grid keeps each simulation a few milliseconds.
  ll::ProcessConfig p = ll::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  return p;
}

double grid_max(const ll::FieldGrid& g) {
  return *std::max_element(g.values.begin(), g.values.end());
}

double grid_min(const ll::FieldGrid& g) {
  return *std::min_element(g.values.begin(), g.values.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Process configuration
// ---------------------------------------------------------------------------

TEST(Process, PresetsValidate) {
  EXPECT_NO_THROW(ll::ProcessConfig::n10().validate());
  EXPECT_NO_THROW(ll::ProcessConfig::n7().validate());
}

TEST(Process, PresetsDiffer) {
  const auto n10 = ll::ProcessConfig::n10();
  const auto n7 = ll::ProcessConfig::n7();
  EXPECT_NE(n10.name, n7.name);
  EXPECT_LT(n7.min_pitch_nm, n10.min_pitch_nm);
  EXPECT_NE(n10.resist.diffusion_length_nm, n7.resist.diffusion_length_nm);
}

TEST(Process, ValidationCatchesBadFields) {
  auto p = ll::ProcessConfig::n10();
  p.grid.pixels = 100;  // not a power of two
  EXPECT_THROW(p.validate(), lithogan::util::InvalidArgument);

  p = ll::ProcessConfig::n10();
  p.optical.sigma_inner = 0.95;  // inner > outer
  EXPECT_THROW(p.validate(), lithogan::util::InvalidArgument);

  p = ll::ProcessConfig::n10();
  p.resist.threshold = 1.5;
  EXPECT_THROW(p.validate(), lithogan::util::InvalidArgument);

  p = ll::ProcessConfig::n10();
  p.min_pitch_nm = p.contact_size_nm / 2.0;
  EXPECT_THROW(p.validate(), lithogan::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Source sampling
// ---------------------------------------------------------------------------

TEST(Source, AnnularPointsLieInBand) {
  ll::OpticalConfig cfg;
  cfg.sigma_inner = 0.6;
  cfg.sigma_outer = 0.9;
  cfg.source_rings = 3;
  cfg.source_points_per_ring = 12;
  const auto pts = ll::sample_source(cfg);
  EXPECT_EQ(pts.size(), 36u);
  double total_weight = 0.0;
  for (const auto& p : pts) {
    const double r = std::hypot(p.fx, p.fy);
    EXPECT_GE(r, 0.6 - 1e-9);
    EXPECT_LE(r, 0.9 + 1e-9);
    total_weight += p.weight;
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-12);
}

TEST(Source, QuadrupoleConcentratesOnDiagonals) {
  ll::OpticalConfig cfg;
  cfg.source_shape = ll::SourceShape::kQuadrupole;
  cfg.source_rings = 2;
  cfg.source_points_per_ring = 16;
  const auto pts = ll::sample_source(cfg);
  for (const auto& p : pts) {
    // Azimuth must lie within 22.5 degrees of a diagonal.
    double theta = std::atan2(p.fy, p.fx);
    if (theta < 0) theta += 2.0 * M_PI;
    const double pole = M_PI / 4.0 + M_PI / 2.0 * std::round((theta - M_PI / 4.0) /
                                                             (M_PI / 2.0));
    EXPECT_LE(std::abs(theta - pole), M_PI / 8.0 + 1e-9);
  }
}

TEST(Source, SymmetricAboutOrigin) {
  // Mean offset should vanish for both shapes (balanced illumination).
  for (const auto shape : {ll::SourceShape::kAnnular, ll::SourceShape::kQuadrupole}) {
    ll::OpticalConfig cfg;
    cfg.source_shape = shape;
    cfg.source_rings = 2;
    cfg.source_points_per_ring = 8;
    const auto pts = ll::sample_source(cfg);
    double mx = 0.0;
    double my = 0.0;
    for (const auto& p : pts) {
      mx += p.fx * p.weight;
      my += p.fy * p.weight;
    }
    EXPECT_NEAR(mx, 0.0, 1e-9);
    EXPECT_NEAR(my, 0.0, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Mask rasterization
// ---------------------------------------------------------------------------

TEST(MaskRaster, FullCoverPixelIsOne) {
  ll::GridConfig grid;
  grid.extent_nm = 64.0;
  grid.pixels = 16;  // 4 nm pixels
  const auto mask = ll::rasterize_mask({{{8.0, 8.0}, {24.0, 24.0}}}, grid);
  EXPECT_DOUBLE_EQ(mask.at(3, 3), 1.0);   // fully inside
  EXPECT_DOUBLE_EQ(mask.at(0, 0), 0.0);   // fully outside
}

TEST(MaskRaster, PartialPixelIsFractional) {
  ll::GridConfig grid;
  grid.extent_nm = 64.0;
  grid.pixels = 16;
  // Rectangle covering half of pixel (2, 2): x in [8, 10) of pixel [8, 12).
  const auto mask = ll::rasterize_mask({{{8.0, 8.0}, {10.0, 12.0}}}, grid);
  EXPECT_NEAR(mask.at(2, 2), 0.5, 1e-12);
}

TEST(MaskRaster, TotalAreaPreserved) {
  ll::GridConfig grid;
  grid.extent_nm = 1024.0;
  grid.pixels = 128;
  const auto mask =
      ll::rasterize_mask({lg::Rect::from_center({500.0, 500.0}, 61.0, 47.0)}, grid);
  double sum = 0.0;
  for (const double v : mask.values) sum += v;
  const double pixel_area = grid.pixel_nm() * grid.pixel_nm();
  EXPECT_NEAR(sum * pixel_area, 61.0 * 47.0, 1e-6);
}

TEST(MaskRaster, OverlappingOpeningsClampToOne) {
  ll::GridConfig grid;
  grid.extent_nm = 64.0;
  grid.pixels = 16;
  const lg::Rect r{{8.0, 8.0}, {24.0, 24.0}};
  const auto mask = ll::rasterize_mask({r, r}, grid);
  EXPECT_DOUBLE_EQ(grid_max(mask), 1.0);
}

// ---------------------------------------------------------------------------
// Optical model
// ---------------------------------------------------------------------------

TEST(Optical, OpenFieldImagesToUnity) {
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  ll::FieldGrid mask;
  mask.pixels = p.grid.pixels;
  mask.extent_nm = p.grid.extent_nm;
  mask.values.assign(mask.pixels * mask.pixels, 1.0);
  const auto aerial = model.aerial_image(mask);
  for (const double v : aerial.values) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(Optical, DarkFieldImagesToZero) {
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  ll::FieldGrid mask;
  mask.pixels = p.grid.pixels;
  mask.extent_nm = p.grid.extent_nm;
  mask.values.assign(mask.pixels * mask.pixels, 0.0);
  const auto aerial = model.aerial_image(mask);
  EXPECT_NEAR(grid_max(aerial), 0.0, 1e-12);
}

TEST(Optical, ContactPeaksAtItsCenter) {
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  const double c = p.grid.extent_nm / 2.0;
  const auto mask = ll::rasterize_mask({lg::Rect::from_center({c, c}, 60.0, 60.0)},
                                       p.grid);
  const auto aerial = model.aerial_image(mask);
  // Peak within one pixel of the geometric center, intensity well below the
  // open-field level (sub-resolution contact).
  double peak = 0.0;
  std::size_t arg = 0;
  for (std::size_t i = 0; i < aerial.values.size(); ++i) {
    if (aerial.values[i] > peak) {
      peak = aerial.values[i];
      arg = i;
    }
  }
  const double px = (static_cast<double>(arg % aerial.pixels) + 0.5) * aerial.pixel_nm();
  const double py = (static_cast<double>(arg / aerial.pixels) + 0.5) * aerial.pixel_nm();
  EXPECT_NEAR(px, c, aerial.pixel_nm());
  EXPECT_NEAR(py, c, aerial.pixel_nm());
  EXPECT_GT(peak, 0.05);
  EXPECT_LT(peak, 0.6);
}

TEST(Optical, ShiftEquivariance) {
  // Moving the mask by whole pixels moves the aerial image identically
  // (the imaging system is space-invariant).
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  const double c = p.grid.extent_nm / 2.0;
  const double dx = p.grid.pixel_nm();
  const auto a1 = model.aerial_image(
      ll::rasterize_mask({lg::Rect::from_center({c, c}, 60.0, 60.0)}, p.grid));
  const auto a2 = model.aerial_image(ll::rasterize_mask(
      {lg::Rect::from_center({c + 8 * dx, c}, 60.0, 60.0)}, p.grid));
  const std::size_t n = p.grid.pixels;
  double worst = 0.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x + 8 < n; ++x) {
      worst = std::max(worst, std::abs(a1.at(x, y) - a2.at(x + 8, y)));
    }
  }
  EXPECT_LT(worst, 1e-9);
}

TEST(Optical, LinearityDoesNotHoldForIntensity) {
  // Partially coherent imaging is nonlinear in the mask: two nearby
  // contacts interact. This is the proximity effect the GAN must learn.
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  const double c = p.grid.extent_nm / 2.0;
  const lg::Rect r1 = lg::Rect::from_center({c - 55.0, c}, 60.0, 60.0);
  const lg::Rect r2 = lg::Rect::from_center({c + 55.0, c}, 60.0, 60.0);
  const auto both = model.aerial_image(ll::rasterize_mask({r1, r2}, p.grid));
  const auto only1 = model.aerial_image(ll::rasterize_mask({r1}, p.grid));
  const auto only2 = model.aerial_image(ll::rasterize_mask({r2}, p.grid));
  double max_dev = 0.0;
  for (std::size_t i = 0; i < both.values.size(); ++i) {
    max_dev = std::max(max_dev,
                       std::abs(both.values[i] - only1.values[i] - only2.values[i]));
  }
  EXPECT_GT(max_dev, 0.01);
}

TEST(Optical, MoreKernelsForMoreSampling) {
  auto p = small_process();
  ll::OpticalModel fast(p.optical, p.grid);
  p.optical.source_rings = 4;
  p.optical.source_points_per_ring = 16;
  p.optical.focus_planes = 3;
  ll::OpticalModel rigorous(p.optical, p.grid);
  EXPECT_EQ(fast.kernel_count(), 8u);
  EXPECT_EQ(rigorous.kernel_count(), 4u * 16u * 3u);
}

TEST(Optical, AerialIsNonNegative) {
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  const double c = p.grid.extent_nm / 2.0;
  const auto aerial = model.aerial_image(ll::rasterize_mask(
      {lg::Rect::from_center({c, c}, 60.0, 60.0),
       lg::Rect::from_center({c + 120.0, c - 120.0}, 60.0, 60.0)},
      p.grid));
  EXPECT_GE(grid_min(aerial), -1e-9);
}

// ---------------------------------------------------------------------------
// Resist models
// ---------------------------------------------------------------------------

TEST(Resist, DiffusePreservesMass) {
  const auto p = small_process();
  const auto mask = ll::rasterize_mask(
      {lg::Rect::from_center({512.0, 512.0}, 100.0, 60.0)}, p.grid);
  const auto blurred = ll::diffuse(mask, 25.0);
  double m0 = 0.0;
  double m1 = 0.0;
  for (const double v : mask.values) m0 += v;
  for (const double v : blurred.values) m1 += v;
  EXPECT_NEAR(m1, m0, 1e-6 * m0);
}

TEST(Resist, DiffuseLowersPeak) {
  const auto p = small_process();
  const auto mask = ll::rasterize_mask(
      {lg::Rect::from_center({512.0, 512.0}, 60.0, 60.0)}, p.grid);
  const auto blurred = ll::diffuse(mask, 25.0);
  EXPECT_LT(grid_max(blurred), grid_max(mask));
}

TEST(Resist, ZeroDiffusionIsIdentity) {
  const auto p = small_process();
  const auto mask = ll::rasterize_mask(
      {lg::Rect::from_center({512.0, 512.0}, 60.0, 60.0)}, p.grid);
  const auto same = ll::diffuse(mask, 0.0);
  for (std::size_t i = 0; i < mask.values.size(); ++i) {
    EXPECT_DOUBLE_EQ(same.values[i], mask.values[i]);
  }
}

TEST(Resist, ConstantThresholdDevelopSign) {
  ll::ResistConfig cfg;
  cfg.threshold = 0.3;
  cfg.diffusion_length_nm = 0.0;
  ll::ConstantThresholdResist resist(cfg);
  ll::FieldGrid aerial;
  aerial.pixels = 8;
  aerial.extent_nm = 64.0;
  aerial.values.assign(64, 0.1);
  aerial.values[27] = 0.9;
  const auto dev = resist.develop(aerial);
  EXPECT_GT(dev.values[27], 0.0);
  EXPECT_LT(dev.values[0], 0.0);
}

TEST(Resist, VariableThresholdDependsOnNeighborhood) {
  // The same isolated contact in a hotter neighborhood (extra flux nearby)
  // sees a different local threshold — the VTR context effect.
  const auto p = small_process();
  ll::OpticalModel model(p.optical, p.grid);
  ll::VariableThresholdResist resist(p.resist);
  const double c = p.grid.extent_nm / 2.0;
  const auto lat_iso = resist.latent_image(model.aerial_image(
      ll::rasterize_mask({lg::Rect::from_center({c, c}, 60.0, 60.0)}, p.grid)));
  const auto lat_dense = resist.latent_image(model.aerial_image(ll::rasterize_mask(
      {lg::Rect::from_center({c, c}, 60.0, 60.0),
       lg::Rect::from_center({c + 110.0, c}, 60.0, 60.0),
       lg::Rect::from_center({c - 110.0, c}, 60.0, 60.0)},
      p.grid)));
  const auto thr_iso = resist.threshold_field(lat_iso);
  const auto thr_dense = resist.threshold_field(lat_dense);
  const std::size_t center_idx =
      (p.grid.pixels / 2) * p.grid.pixels + p.grid.pixels / 2;
  EXPECT_GT(std::abs(thr_dense.values[center_idx] - thr_iso.values[center_idx]), 1e-4);
}

namespace {

// VariableThresholdResist::threshold_field as first written: an O(r)
// circular scan per pixel per pass. Kept as the reference the O(1) window
// max must reproduce bit for bit.
ll::FieldGrid brute_force_threshold(const ll::FieldGrid& latent,
                                    const ll::ResistConfig& config) {
  const std::size_t n = latent.pixels;
  const double dx = latent.pixel_nm();
  const auto radius = static_cast<std::size_t>(
      std::max(1.0, std::round(config.vtr_window_nm / (2.0 * dx))));
  std::vector<double> tmp(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    const double* row = latent.values.data() + y * n;
    for (std::size_t x = 0; x < n; ++x) {
      double best = row[x];
      for (std::size_t d = 1; d <= radius; ++d) {
        best = std::max(best, row[(x + d) % n]);
        best = std::max(best, row[(x + n - d % n) % n]);
      }
      tmp[y * n + x] = best;
    }
  }
  std::vector<double> local_max(n * n);
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      double best = tmp[y * n + x];
      for (std::size_t d = 1; d <= radius; ++d) {
        best = std::max(best, tmp[((y + d) % n) * n + x]);
        best = std::max(best, tmp[((y + n - d % n) % n) * n + x]);
      }
      local_max[y * n + x] = best;
    }
  }
  ll::FieldGrid out = latent;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const double gx =
          (latent.at((x + 1) % n, y) - latent.at((x + n - 1) % n, y)) / (2.0 * dx);
      const double gy =
          (latent.at(x, (y + 1) % n) - latent.at(x, (y + n - 1) % n)) / (2.0 * dx);
      const double grad = std::sqrt(gx * gx + gy * gy);
      out.values[y * n + x] =
          config.threshold +
          config.vtr_max_coeff * (local_max[y * n + x] - config.vtr_reference_imax) +
          config.vtr_slope_coeff * grad;
    }
  }
  return out;
}

}  // namespace

TEST(Resist, VariableThresholdMatchesBruteForceWindowMax) {
  struct Case {
    std::size_t n;
    std::size_t radius;
  };
  const Case cases[] = {
      {64, 1},   // smallest window
      {64, 31},  // 2r + 1 = n - 1: the widest window short of the circle
      {64, 32},  // 2r + 1 = n + 1: the whole line
      {64, 45},  // r > n / 2
      {48, 5},   // non-power-of-two n, a partial vertical strip
      {37, 18},  // odd n with 2r + 1 = n
      {40, 7},   // block size k = 15 does not divide n + 2r = 54
  };
  lithogan::util::Rng rng(17);
  for (const Case& c : cases) {
    ll::FieldGrid latent;
    latent.pixels = c.n;
    latent.extent_nm = static_cast<double>(c.n);  // 1 nm pixels
    latent.values.resize(c.n * c.n);
    for (double& v : latent.values) v = rng.uniform(0.05, 0.9);
    ll::ResistConfig config;
    config.vtr_window_nm = 2.0 * static_cast<double>(c.radius);
    const ll::FieldGrid expected = brute_force_threshold(latent, config);

    ll::VariableThresholdResist resist(config);
    const ll::FieldGrid serial = resist.threshold_field(latent);
    ASSERT_EQ(serial.values.size(), expected.values.size());
    EXPECT_EQ(0, std::memcmp(serial.values.data(), expected.values.data(),
                             expected.values.size() * sizeof(double)))
        << "n=" << c.n << " r=" << c.radius;

    lithogan::util::ExecContext exec(2);
    exec.pool().set_dispatch_cost(0);  // fan out even these small grids
    resist.set_exec_context(&exec);
    const ll::FieldGrid parallel = resist.threshold_field(latent);
    EXPECT_EQ(0, std::memcmp(parallel.values.data(), expected.values.data(),
                             expected.values.size() * sizeof(double)))
        << "n=" << c.n << " r=" << c.radius << " threads=2";
  }
}

TEST(Resist, NegativeSigmaRejected) {
  const auto p = small_process();
  const auto mask = ll::rasterize_mask({}, p.grid);
  EXPECT_THROW(ll::diffuse(mask, -1.0), lithogan::util::InvalidArgument);
}

TEST(Resist, BandTagIsValidated) {
  ll::FieldGrid field;
  field.pixels = 16;
  field.extent_nm = 128.0;
  field.values.assign(16 * 16, 0.5);
  for (const std::size_t bad : {3, 12, 32}) {
    field.band_pixels = bad;
    EXPECT_THROW(ll::diffuse(field, 10.0), lithogan::util::InvalidArgument) << bad;
    EXPECT_THROW(ll::diffuse(field, 0.0), lithogan::util::InvalidArgument) << bad;
  }
  // Every power of two up to the grid side is a band; a constant field is
  // inside all of them and blurs to itself on each.
  for (const std::size_t m : {1, 2, 4, 16}) {
    field.band_pixels = m;
    const auto blurred = ll::diffuse(field, 10.0);
    EXPECT_EQ(blurred.band_pixels, m);
    for (const double v : blurred.values) ASSERT_NEAR(v, 0.5, 1e-12) << "m=" << m;
  }
}

// ---------------------------------------------------------------------------
// Full simulator
// ---------------------------------------------------------------------------

// The golden replay contract on the chip tile grid (N10, 512 px over
// 2048 nm): Simulator::run, which blurs the band intensity straight into
// the latent, equals aerial_image -> develop -> contours byte for byte.
// Both reach the band blur, a dose-scaled aerial (as the process-window
// sweep makes) does too and develops like the band blur of the scaled
// samples, and develop carries no band.
TEST(SimulatorStages, RunEqualsStagedReplayOnTheBandPath) {
  ll::ProcessConfig p = ll::ProcessConfig::n10();
  p.grid.pixels = 512;
  p.grid.extent_nm = 2048.0;
  ll::Simulator sim(p);
  std::vector<lg::Rect> openings;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      openings.push_back(lg::Rect::from_center({900.0 + 136.0 * i, 880.0 + 140.0 * j},
                                               60.0, 60.0));
    }
  }
  auto& registry = lithogan::obs::Registry::global();
  const lithogan::obs::Counter& band = registry.counter("sim.diffuse_band");
  const lithogan::obs::Counter& full = registry.counter("sim.diffuse_full");
  const std::uint64_t band0 = band.value();
  const std::uint64_t full0 = full.value();

  const ll::SimulationResult result = sim.run(openings);
  const ll::FieldGrid aerial = sim.aerial_image(openings);
  const ll::FieldGrid develop = sim.develop(aerial);
  const auto contours = sim.contours(develop);

  ASSERT_EQ(aerial.band_pixels, sim.optical().imaging_pixels());
  ASSERT_LT(aerial.band_pixels, p.grid.pixels);
  EXPECT_EQ(result.latent.band_pixels, aerial.band_pixels);
  EXPECT_EQ(result.develop.band_pixels, 0u);
  EXPECT_EQ(develop.band_pixels, 0u);
  ASSERT_EQ(result.develop.values.size(), develop.values.size());
  ASSERT_EQ(0, std::memcmp(result.develop.values.data(), develop.values.data(),
                           develop.values.size() * sizeof(double)));
  ASSERT_FALSE(contours.empty());
  ASSERT_EQ(result.contours.size(), contours.size());
  for (std::size_t c = 0; c < contours.size(); ++c) {
    const auto& a = result.contours[c].vertices();
    const auto& b = contours[c].vertices();
    ASSERT_EQ(a.size(), b.size()) << "contour " << c;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(lg::Point)))
        << "contour " << c;
  }

  ll::FieldGrid dosed = aerial;
  for (double& v : dosed.values) v *= 1.05;
  EXPECT_EQ(dosed.band_pixels, aerial.band_pixels);
  EXPECT_EQ(sim.develop(dosed).band_pixels, 0u);
  ll::ConstantThresholdResist constant(p.resist);
  EXPECT_EQ(constant.develop(aerial).band_pixels, 0u);

  EXPECT_EQ(band.value() - band0, 4u);
  EXPECT_EQ(full.value() - full0, 0u);

  // run's latent is the resist blur of the staged aerial, bit for bit.
  const double sigma = p.resist.diffusion_length_nm;
  const ll::FieldGrid latent = ll::diffuse(aerial, sigma);
  ASSERT_EQ(result.latent.values.size(), latent.values.size());
  ASSERT_EQ(0, std::memcmp(result.latent.values.data(), latent.values.data(),
                           latent.values.size() * sizeof(double)));

  // Scaling the aerial scales its exact band samples by the same rounding,
  // so the dosed aerial develops like the band blur of the dosed samples.
  const std::size_t m = aerial.band_pixels;
  std::vector<double> samples =
      sim.optical().band_intensity(ll::rasterize_mask(openings, p.grid));
  for (double& v : samples) v *= 1.05;
  const ll::VariableThresholdResist resist(p.resist);
  const ll::FieldGrid dosed_develop = sim.develop(dosed);
  const ll::FieldGrid band_develop = resist.develop_latent(
      ll::diffuse_band(samples, m, p.grid, sigma));
  ASSERT_EQ(dosed_develop.values.size(), band_develop.values.size());
  ASSERT_EQ(0, std::memcmp(dosed_develop.values.data(), band_develop.values.data(),
                           band_develop.values.size() * sizeof(double)));
}

// Off the band path run keeps the staged route: on a grid whose imaging
// grid is the simulation grid (m = n), and on a band grid with no blur.
TEST(SimulatorStages, RunEqualsStagedReplayOffTheBandPath) {
  ll::ProcessConfig no_band = ll::ProcessConfig::n10();
  no_band.grid.pixels = 32;
  ll::ProcessConfig no_blur = ll::ProcessConfig::n10();
  no_blur.grid.pixels = 64;
  no_blur.resist.diffusion_length_nm = 0.0;
  for (const ll::ProcessConfig& p : {no_band, no_blur}) {
    ll::Simulator sim(p);
    const double c = p.grid.extent_nm / 2.0;
    const std::vector<lg::Rect> openings = {lg::Rect::from_center({c, c}, 60.0, 60.0),
                                            lg::Rect::from_center({c + 136.0, c}, 60.0,
                                                                  60.0)};
    const ll::SimulationResult result = sim.run(openings);
    const ll::FieldGrid develop = sim.develop(sim.aerial_image(openings));
    ASSERT_EQ(result.develop.values.size(), develop.values.size());
    EXPECT_EQ(0, std::memcmp(result.develop.values.data(), develop.values.data(),
                             develop.values.size() * sizeof(double)))
        << "pixels=" << p.grid.pixels;
    EXPECT_EQ(result.contours.size(), sim.contours(develop).size());
  }
  EXPECT_EQ(ll::Simulator(no_band).optical().imaging_pixels(), no_band.grid.pixels);
}

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest() : sim_(small_process()) { sim_.calibrate_dose(); }
  ll::Simulator sim_;
  double center() const { return sim_.process().grid.extent_nm / 2.0; }
};

TEST_F(SimulatorTest, CalibratedIsolatedContactPrintsAtTarget) {
  const double c = center();
  const auto result = sim_.run({lg::Rect::from_center(
      {c, c}, sim_.process().contact_size_nm, sim_.process().contact_size_nm)});
  ASSERT_FALSE(result.contours.empty());
  const auto cd = ll::measure_cd(result.contours, {c, c});
  EXPECT_NEAR(cd.width_nm, 60.0, 2.5);
  EXPECT_NEAR(cd.height_nm, 60.0, 2.5);
}

TEST_F(SimulatorTest, EveryContactPrintsOnce) {
  const double c = center();
  const auto result = sim_.run({
      lg::Rect::from_center({c, c}, 60.0, 60.0),
      lg::Rect::from_center({c + 130.0, c}, 60.0, 60.0),
      lg::Rect::from_center({c, c - 130.0}, 60.0, 60.0),
  });
  EXPECT_EQ(result.contours.size(), 3u);
}

TEST_F(SimulatorTest, ProximityAffectsPrintedCd) {
  const double c = center();
  const auto iso = sim_.run({lg::Rect::from_center({c, c}, 60.0, 60.0)});
  const auto dense = sim_.run({
      lg::Rect::from_center({c, c}, 60.0, 60.0),
      lg::Rect::from_center({c + 120.0, c}, 60.0, 60.0),
      lg::Rect::from_center({c - 120.0, c}, 60.0, 60.0),
  });
  const auto cd_iso = ll::measure_cd(iso.contours, {c, c});
  const auto cd_dense = ll::measure_cd(dense.contours, {c, c});
  // Proximity in this process shows up mostly perpendicular to the array
  // axis (the VTR local-max term raises the threshold along the axis while
  // extra flux grows the orthogonal CD).
  const double delta = std::abs(cd_dense.width_nm - cd_iso.width_nm) +
                       std::abs(cd_dense.height_nm - cd_iso.height_nm);
  EXPECT_GT(delta, 1.0);
}

TEST_F(SimulatorTest, SubThresholdFeatureDoesNotPrint) {
  const double c = center();
  // A 20 nm opening is far below the resolution limit.
  const auto result = sim_.run({lg::Rect::from_center({c, c}, 20.0, 20.0)});
  EXPECT_TRUE(ll::measure_cd(result.contours, {c, c}).width_nm < 1.0);
}

TEST_F(SimulatorTest, ContoursAreInPhysicalCoordinates) {
  const double c = center();
  const auto result = sim_.run({lg::Rect::from_center({c, c}, 60.0, 60.0)});
  const auto contour = lg::contour_at(result.contours, {c, c});
  ASSERT_FALSE(contour.empty());
  const auto ctr = contour.centroid();
  EXPECT_NEAR(ctr.x, c, 1.5);
  EXPECT_NEAR(ctr.y, c, 1.5);
}

TEST_F(SimulatorTest, StageTimingsAreRecorded) {
  sim_.reset_timings();
  const double c = center();
  sim_.run({lg::Rect::from_center({c, c}, 60.0, 60.0)});
  EXPECT_EQ(sim_.timings().count("optical"), 1);
  EXPECT_EQ(sim_.timings().count("resist"), 1);
  EXPECT_EQ(sim_.timings().count("contour"), 1);
  EXPECT_GT(sim_.timings().total("optical"), 0.0);
}

TEST_F(SimulatorTest, SrafDoesNotPrintButShiftsCd) {
  const double c = center();
  // Sub-resolution assist bars beside the contact: must not print, but they
  // modulate the main feature's image.
  const std::vector<lg::Rect> with_sraf = {
      lg::Rect::from_center({c, c}, 60.0, 60.0),
      lg::Rect::from_center({c - 90.0, c}, 24.0, 80.0),
      lg::Rect::from_center({c + 90.0, c}, 24.0, 80.0),
  };
  const auto result = sim_.run(with_sraf);
  // Only the main contact prints.
  EXPECT_EQ(result.contours.size(), 1u);
  const auto iso = sim_.run({lg::Rect::from_center({c, c}, 60.0, 60.0)});
  const auto cd_sraf = ll::measure_cd(result.contours, {c, c});
  const auto cd_iso = ll::measure_cd(iso.contours, {c, c});
  EXPECT_GT(std::abs(cd_sraf.width_nm - cd_iso.width_nm), 0.1);
}

TEST(SimulatorKinds, ConstantVsVariableThresholdDiffer) {
  const auto p = small_process();
  ll::Simulator vtr(p, ll::Simulator::ResistKind::kVariableThreshold);
  ll::Simulator ctr(p, ll::Simulator::ResistKind::kConstantThreshold);
  vtr.calibrate_dose();
  ctr.calibrate_dose();
  const double c = p.grid.extent_nm / 2.0;
  const std::vector<lg::Rect> mask = {
      lg::Rect::from_center({c, c}, 60.0, 60.0),
      lg::Rect::from_center({c + 120.0, c}, 60.0, 60.0),
  };
  const auto cd_v = ll::measure_cd(vtr.run(mask).contours, {c, c});
  const auto cd_c = ll::measure_cd(ctr.run(mask).contours, {c, c});
  EXPECT_GT(std::abs(cd_v.width_nm - cd_c.width_nm), 0.05);
}

TEST(MeasureCd, NoEnclosingContourGivesZero) {
  const auto cd = ll::measure_cd({}, {10.0, 10.0});
  EXPECT_DOUBLE_EQ(cd.width_nm, 0.0);
  EXPECT_DOUBLE_EQ(cd.height_nm, 0.0);
}

// Tests for the extension features: EPE metric, sub-pixel shifting, the
// PatchGAN discriminator, the compact-VTR baseline, coma aberration,
// process-window analysis, hotspot screening and dataset statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/compact_vtr.hpp"
#include "core/gan.hpp"
#include "core/networks.hpp"
#include "data/render.hpp"
#include "eval/metrics.hpp"
#include "geometry/marching_squares.hpp"
#include "image/ops.hpp"
#include "layout/generator.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

using namespace lithogan;

namespace {
struct QuietLogs {
  QuietLogs() { util::set_log_level(util::LogLevel::kWarn); }
} const quiet_logs;

image::Image blob(std::size_t size, std::size_t x0, std::size_t y0, std::size_t x1,
                  std::size_t y1) {
  image::Image img(1, size, size);
  for (std::size_t y = y0; y < y1; ++y) {
    for (std::size_t x = x0; x < x1; ++x) img.at(0, y, x) = 1.0f;
  }
  return img;
}
}  // namespace

// ---------------------------------------------------------------------------
// EPE (edge placement error vs design target)
// ---------------------------------------------------------------------------

TEST(Epe, PerfectPrintScoresZero) {
  const auto printed = blob(32, 10, 10, 20, 20);
  // Target matches the printed pixel-edge box exactly: [10, 20) x [10, 20).
  const auto r = eval::edge_placement_error(printed, {{10.0, 10.0}, {20.0, 20.0}});
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.mean(), 0.0);
}

TEST(Epe, OvergrowthShowsOnAllEdges) {
  const auto printed = blob(32, 8, 8, 22, 22);  // 2 px overgrowth each side
  const auto r = eval::edge_placement_error(printed, {{10.0, 10.0}, {20.0, 20.0}});
  ASSERT_TRUE(r.valid);
  EXPECT_DOUBLE_EQ(r.left, 2.0);
  EXPECT_DOUBLE_EQ(r.right, 2.0);
  EXPECT_DOUBLE_EQ(r.top, 2.0);
  EXPECT_DOUBLE_EQ(r.bottom, 2.0);
  EXPECT_DOUBLE_EQ(r.max(), 2.0);
}

TEST(Epe, EmptyPrintIsInvalid) {
  image::Image empty(1, 16, 16);
  EXPECT_FALSE(eval::edge_placement_error(empty, {{4.0, 4.0}, {12.0, 12.0}}).valid);
}

TEST(Epe, EmptyTargetRejected) {
  const auto printed = blob(16, 4, 4, 8, 8);
  EXPECT_THROW(eval::edge_placement_error(printed, geometry::Rect::empty()),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sub-pixel shifting
// ---------------------------------------------------------------------------

TEST(ShiftBilinear, IntegerShiftMatchesNearest) {
  util::Rng rng(1);
  image::Image img(1, 16, 16);
  for (float& v : img.data()) v = static_cast<float>(rng.uniform(0, 1));
  const auto a = image::shift(img, 3, -2);
  const auto b = image::shift_bilinear(img, 3.0, -2.0);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_NEAR(a.data()[i], b.data()[i], 1e-6f);
  }
}

TEST(ShiftBilinear, HalfPixelAveragesNeighbors) {
  image::Image img(1, 4, 4);
  img.at(0, 1, 1) = 1.0f;
  const auto out = image::shift_bilinear(img, 0.5, 0.0);
  EXPECT_NEAR(out.at(0, 1, 1), 0.5f, 1e-6f);
  EXPECT_NEAR(out.at(0, 1, 2), 0.5f, 1e-6f);
}

TEST(ShiftBilinear, MassConservedInteriorly) {
  image::Image img(1, 32, 32);
  for (std::size_t y = 12; y < 20; ++y) {
    for (std::size_t x = 12; x < 20; ++x) img.at(0, y, x) = 1.0f;
  }
  const auto out = image::shift_bilinear(img, 2.3, -1.7);
  double m0 = 0.0;
  double m1 = 0.0;
  for (const float v : img.data()) m0 += v;
  for (const float v : out.data()) m1 += v;
  EXPECT_NEAR(m1, m0, 1e-4);
}

TEST(RecenterTo, SubPixelTargetsApproached) {
  auto img = blob(32, 10, 10, 20, 20);  // center (15, 15)
  const auto moved = data::recenter_to(img, {17.5, 15.0});
  const auto c = data::pattern_center(moved);
  EXPECT_NEAR(c.x, 17.5, 0.6);
  EXPECT_NEAR(c.y, 15.0, 0.6);
}

// ---------------------------------------------------------------------------
// PatchGAN discriminator
// ---------------------------------------------------------------------------

TEST(PatchGan, OutputsLogitMap) {
  auto cfg = core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 6;
  cfg.max_channels = 24;
  util::Rng rng(7);
  auto dis = core::build_patch_discriminator(cfg, rng);
  const auto xy = nn::Tensor::randn({2, 4, 16, 16}, rng);
  const auto logits = dis->forward(xy);
  EXPECT_EQ(logits.dim(0), 2u);
  EXPECT_EQ(logits.dim(1), 1u);
  EXPECT_EQ(logits.dim(2), 2u);  // 16 / 8
  EXPECT_EQ(logits.dim(3), 2u);
}

TEST(PatchGan, TrainerAcceptsPatchDiscriminator) {
  auto cfg = core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 6;
  cfg.max_channels = 24;
  util::Rng rng(8);
  core::CganTrainer trainer(cfg, core::build_generator(cfg, rng),
                            core::build_patch_discriminator(cfg, rng));
  const auto x = nn::Tensor::randn({2, 3, 16, 16}, rng, 0.5f);
  const auto y = nn::Tensor::randn({2, 1, 16, 16}, rng, 0.5f);
  for (int i = 0; i < 3; ++i) {
    const auto losses = trainer.train_step(x, y);
    EXPECT_TRUE(std::isfinite(losses.d_loss));
    EXPECT_TRUE(std::isfinite(losses.g_adv_loss));
  }
}

// ---------------------------------------------------------------------------
// Coma aberration (the placement-error substrate)
// ---------------------------------------------------------------------------

TEST(Coma, ShiftsThePrintedPattern) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  p.optical.coma_x_waves = 0.0;
  p.optical.coma_y_waves = 0.0;
  const double c = p.grid.extent_nm / 2.0;
  const std::vector<geometry::Rect> mask = {geometry::Rect::from_center({c, c}, 60, 60)};

  litho::Simulator no_coma(p);
  no_coma.calibrate_dose();
  const auto base = no_coma.run(mask);

  p.optical.coma_x_waves = 0.08;  // strong coma for a clear signal
  litho::Simulator with_coma(p);
  with_coma.calibrate_dose();
  const auto shifted = with_coma.run(mask);

  const auto c0 = geometry::contour_at(base.contours, {c, c}).bounding_box().center();
  const auto c1 = geometry::contour_at(shifted.contours, {c, c}).bounding_box().center();
  EXPECT_GT(std::abs(c1.x - c0.x), 0.3);  // x-coma shifts along x (nm)
  EXPECT_LT(std::abs(c1.y - c0.y), std::abs(c1.x - c0.x) + 0.2);
}

TEST(Coma, ShiftDependsOnNeighborhood) {
  // The same target in different environments shifts differently — the
  // learnable placement signal.
  auto p = litho::ProcessConfig::n10();  // has preset residual coma
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  litho::Simulator sim(p);
  sim.calibrate_dose();
  const double c = p.grid.extent_nm / 2.0;
  const auto iso = sim.run({geometry::Rect::from_center({c, c}, 60, 60)});
  const auto dense = sim.run({geometry::Rect::from_center({c, c}, 60, 60),
                              geometry::Rect::from_center({c + 140, c}, 60, 60)});
  const auto ci = geometry::contour_at(iso.contours, {c, c}).bounding_box().center();
  const auto cd = geometry::contour_at(dense.contours, {c, c}).bounding_box().center();
  EXPECT_GT(geometry::distance(ci, cd), 0.1);
}

// ---------------------------------------------------------------------------
// Compact VTR baseline
// ---------------------------------------------------------------------------

TEST(CompactVtr, PredictsButLessAccuratelyThanGolden) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 2;
  p.optical.source_points_per_ring = 8;
  data::RenderConfig render;
  render.mask_size_px = 32;
  render.resist_size_px = 32;

  litho::Simulator golden_sim(p);
  golden_sim.calibrate_dose();
  baseline::CompactVtrFlow compact(p, render);
  EXPECT_GT(compact.threshold(), 0.0);

  layout::ClipGenerator gen(p, {}, util::Rng(9));
  double total_iou = 0.0;
  int used = 0;
  for (int k = 0; k < 4; ++k) {
    auto clip = gen.generate();
    clip.target_opc = clip.target;  // no RET: drawn shapes straight through
    clip.neighbors_opc = clip.neighbors;
    const auto result = golden_sim.run(clip.all_openings());
    const auto contour = geometry::contour_at(result.contours, clip.center());
    const auto golden = data::render_golden(contour, clip.center(), render);
    if (!golden.printed) continue;
    const auto pred = compact.predict(clip);
    const auto m = eval::pixel_metrics(golden.resist, pred);
    total_iou += m.mean_iou;
    ++used;
  }
  ASSERT_GT(used, 0);
  const double mean_iou = total_iou / used;
  // Correlated with golden but clearly imperfect (the intro's claim).
  EXPECT_GT(mean_iou, 0.5);
  EXPECT_LT(mean_iou, 0.999);
}

// ---------------------------------------------------------------------------
// Process window
// ---------------------------------------------------------------------------

TEST(ProcessWindow, NominalPointPassesAfterCalibration) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  {
    litho::Simulator calib(p);
    p.resist.threshold = calib.calibrate_dose();
  }
  const double c = p.grid.extent_nm / 2.0;
  litho::ProcessWindowConfig cfg;
  cfg.dose_steps = 3;
  cfg.focus_steps = 1;
  cfg.focus_min_nm = 0.0;
  cfg.focus_max_nm = 0.0;
  const auto result = litho::analyze_process_window(
      p, {geometry::Rect::from_center({c, c}, 60, 60)}, {c, c}, 60.0, cfg);
  ASSERT_EQ(result.points.size(), 3u);
  // Middle point is nominal dose 1.0.
  const auto& nominal = result.points[1];
  EXPECT_NEAR(nominal.dose, 1.0, 1e-9);
  EXPECT_TRUE(nominal.in_spec) << nominal.cd_width_nm << " x " << nominal.cd_height_nm;
}

TEST(ProcessWindow, OverdoseGrowsCd) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  {
    litho::Simulator calib(p);
    p.resist.threshold = calib.calibrate_dose();
  }
  const double c = p.grid.extent_nm / 2.0;
  litho::ProcessWindowConfig cfg;
  cfg.dose_min = 0.8;
  cfg.dose_max = 1.2;
  cfg.dose_steps = 3;
  cfg.focus_steps = 1;
  cfg.focus_min_nm = 0.0;
  const auto result = litho::analyze_process_window(
      p, {geometry::Rect::from_center({c, c}, 60, 60)}, {c, c}, 60.0, cfg);
  // Printed contact CD increases monotonically with dose.
  EXPECT_LT(result.points[0].cd_width_nm, result.points[1].cd_width_nm);
  EXPECT_LT(result.points[1].cd_width_nm, result.points[2].cd_width_nm);
}

TEST(ProcessWindow, DefocusShrinksWindow) {
  auto p = litho::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  {
    litho::Simulator calib(p);
    p.resist.threshold = calib.calibrate_dose();
  }
  const double c = p.grid.extent_nm / 2.0;
  litho::ProcessWindowConfig cfg;
  cfg.dose_steps = 3;
  cfg.focus_steps = 3;
  cfg.focus_min_nm = -150.0;  // strong defocus at the edges
  cfg.focus_max_nm = 150.0;
  const auto result = litho::analyze_process_window(
      p, {geometry::Rect::from_center({c, c}, 60, 60)}, {c, c}, 60.0, cfg);
  // At strong defocus the CD deviates more than at best focus.
  const double cd_mid = result.points[1 * 3 + 1].cd_width_nm;   // f=0, dose=1
  const double cd_out = result.points[0 * 3 + 1].cd_width_nm;   // f=-150, dose=1
  EXPECT_GT(std::abs(cd_out - 60.0) + 0.2, std::abs(cd_mid - 60.0));
  EXPECT_LE(result.yield(), 1.0);
  EXPECT_GE(result.yield(), 0.0);
  // Rendering contains the matrix markers.
  const auto text = litho::render_window(result);
  EXPECT_NE(text.find("focus"), std::string::npos);
}

TEST(ProcessWindow, ExposureLatitudeComputed) {
  litho::ProcessWindowResult r;
  r.dose_steps = 4;
  r.focus_steps = 1;
  for (int d = 0; d < 4; ++d) {
    litho::ProcessWindowPoint pt;
    pt.dose = 0.9 + 0.1 * d;  // 0.9, 1.0, 1.1, 1.2
    pt.in_spec = d == 1 || d == 2;
    r.points.push_back(pt);
  }
  EXPECT_NEAR(r.exposure_latitude(), 0.1, 1e-9);
  EXPECT_NEAR(r.yield(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Screening library
// ---------------------------------------------------------------------------

#include "core/screening.hpp"

TEST(Screening, PredictedCdFromImage) {
  image::Image img(1, 32, 32);
  for (std::size_t y = 10; y < 20; ++y) {
    for (std::size_t x = 8; x < 23; ++x) img.at(0, y, x) = 1.0f;
  }
  const auto cd = core::predicted_cd(img, 2.0);  // 2 nm per pixel
  EXPECT_DOUBLE_EQ(cd.width_nm, 15.0 * 2.0);
  EXPECT_DOUBLE_EQ(cd.height_nm, 10.0 * 2.0);
  // Empty image: zero CD.
  const auto zero = core::predicted_cd(image::Image(1, 8, 8), 2.0);
  EXPECT_DOUBLE_EQ(zero.width_nm, 0.0);
}

TEST(Screening, ReportArithmetic) {
  core::ScreeningReport r;
  r.true_hotspots = 3;
  r.true_clean = 5;
  r.false_alarms = 1;
  r.missed = 1;
  EXPECT_EQ(r.total(), 10u);
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(r.recall(), 0.75);
  // No real hotspots: recall defined as 1 (nothing to miss).
  core::ScreeningReport clean;
  clean.true_clean = 4;
  EXPECT_DOUBLE_EQ(clean.recall(), 1.0);
  EXPECT_DOUBLE_EQ(clean.accuracy(), 1.0);
}

TEST(Screening, DatasetVerdictsAgainstGoldenCd) {
  // Untrained model prints nothing -> every sample is flagged. Samples with
  // golden CD far from target are true hotspots; in-spec ones become false
  // alarms. This pins the verdict crossing logic without training.
  auto cfg = core::LithoGanConfig::tiny();
  cfg.image_size = 16;
  cfg.base_channels = 4;
  cfg.max_channels = 16;
  core::LithoGan model(cfg, core::Mode::kPlainCgan);

  std::vector<data::Sample> samples(2);
  for (auto& s : samples) {
    s.mask_rgb = image::Image(3, 16, 16);
    s.resist = image::Image(1, 16, 16);
    s.resist_pixel_nm = 8.0;
  }
  samples[0].cd_width_nm = 60.0;  // in spec -> false alarm expected
  samples[0].cd_height_nm = 60.0;
  samples[1].cd_width_nm = 80.0;  // hotspot -> caught
  samples[1].cd_height_nm = 80.0;

  const core::ScreeningSpec spec{60.0, 6.0};
  const auto report = core::screen_dataset(model, samples, spec);
  EXPECT_EQ(report.total(), 2u);
  EXPECT_EQ(report.true_hotspots + report.missed, 1u);
  EXPECT_EQ(report.true_clean + report.false_alarms, 1u);
}

// ---------------------------------------------------------------------------
// Dataset statistics
// ---------------------------------------------------------------------------

#include "data/statistics.hpp"

TEST(DatasetStats, ComputesAndFormats) {
  data::Dataset ds;
  ds.process_name = "t";
  for (int i = 0; i < 3; ++i) {
    data::Sample s;
    s.array_type = static_cast<layout::ArrayType>(i);
    s.resist = blob(16, 4, 4, 12, 12);
    s.resist_centered = s.resist;
    s.mask_rgb = image::Image(3, 16, 16);
    s.aerial = s.resist;
    s.center_px = {8.0 + i, 8.0};
    s.cd_width_nm = 60.0 + i;
    s.cd_height_nm = 58.0;
    s.resist_pixel_nm = 4.0;
    ds.samples.push_back(std::move(s));
  }
  const auto stats = data::compute_statistics(ds);
  EXPECT_EQ(stats.sample_count, 3u);
  EXPECT_EQ(stats.isolated_count, 1u);
  EXPECT_EQ(stats.row_count, 1u);
  EXPECT_EQ(stats.grid_count, 1u);
  EXPECT_NEAR(stats.cd_width_nm.mean, 61.0, 1e-9);
  EXPECT_NEAR(stats.center_offset_px.min, 0.0, 1e-9);
  EXPECT_NEAR(stats.center_offset_px.max, 2.0, 1e-9);
  EXPECT_NEAR(stats.center_offset_nm.max, 8.0, 1e-9);
  EXPECT_NEAR(stats.resist_coverage.mean, 64.0 / 256.0, 1e-9);

  const std::string text = data::format_statistics(stats);
  EXPECT_NE(text.find("samples: 3"), std::string::npos);
  EXPECT_NE(text.find("CD width"), std::string::npos);
}

TEST(DatasetStats, EmptyDatasetIsSafe) {
  data::Dataset ds;
  const auto stats = data::compute_statistics(ds);
  EXPECT_EQ(stats.sample_count, 0u);
  EXPECT_NO_THROW(data::format_statistics(stats));
}

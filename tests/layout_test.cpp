#include <gtest/gtest.h>

#include <set>

#include "layout/clip.hpp"
#include "layout/generator.hpp"
#include "layout/opc.hpp"
#include "layout/sraf.hpp"
#include "litho/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ly = lithogan::layout;
namespace ll = lithogan::litho;
namespace lg = lithogan::geometry;
namespace lu = lithogan::util;

namespace {
ll::ProcessConfig test_process() {
  auto p = ll::ProcessConfig::n10();
  p.grid.pixels = 128;
  p.optical.source_rings = 1;
  p.optical.source_points_per_ring = 8;
  return p;
}

ly::ClipGenerator make_generator(unsigned seed = 11) {
  return ly::ClipGenerator(test_process(), ly::GeneratorConfig{}, lu::Rng(seed));
}
}  // namespace

// ---------------------------------------------------------------------------
// MaskClip
// ---------------------------------------------------------------------------

TEST(MaskClip, OpeningsPreOpcUseDrawnShapes) {
  ly::MaskClip clip;
  clip.extent_nm = 1024.0;
  clip.target = lg::Rect::from_center(clip.center(), 60.0, 60.0);
  clip.neighbors.push_back(lg::Rect::from_center({300.0, 300.0}, 60.0, 60.0));
  EXPECT_FALSE(clip.has_opc());
  const auto openings = clip.all_openings();
  EXPECT_EQ(openings.size(), 2u);
  EXPECT_EQ(openings.front(), clip.target);
}

TEST(MaskClip, OpeningsPostOpcUseBiasedShapes) {
  ly::MaskClip clip;
  clip.extent_nm = 1024.0;
  clip.target = lg::Rect::from_center(clip.center(), 60.0, 60.0);
  clip.target_opc = clip.target.inflated(4.0);
  clip.srafs.push_back(lg::Rect::from_center({400.0, 512.0}, 24.0, 80.0));
  EXPECT_TRUE(clip.has_opc());
  const auto openings = clip.all_openings();
  ASSERT_EQ(openings.size(), 2u);
  EXPECT_EQ(openings.front(), clip.target_opc);
  EXPECT_EQ(openings.back(), clip.srafs.front());
}

TEST(MaskClip, ArrayTypeNames) {
  EXPECT_EQ(ly::to_string(ly::ArrayType::kIsolated), "isolated");
  EXPECT_EQ(ly::to_string(ly::ArrayType::kRow), "row");
  EXPECT_EQ(ly::to_string(ly::ArrayType::kGrid), "grid");
}

// ---------------------------------------------------------------------------
// ClipGenerator
// ---------------------------------------------------------------------------

TEST(ClipGenerator, TargetIsAlwaysCentered) {
  auto gen = make_generator();
  for (int i = 0; i < 20; ++i) {
    const auto clip = gen.generate();
    const auto c = clip.target.center();
    EXPECT_DOUBLE_EQ(c.x, clip.extent_nm / 2.0);
    EXPECT_DOUBLE_EQ(c.y, clip.extent_nm / 2.0);
    EXPECT_DOUBLE_EQ(clip.target.width(), 60.0);
  }
}

TEST(ClipGenerator, RowClipsAreCollinear) {
  auto gen = make_generator(5);
  for (int i = 0; i < 10; ++i) {
    const auto clip = gen.generate(ly::ArrayType::kRow);
    ASSERT_EQ(clip.array_type, ly::ArrayType::kRow);
    // All neighbors share (approximately) either the row or the column of
    // the target, modulo jitter.
    const auto c = clip.center();
    for (const auto& n : clip.neighbors) {
      const auto nc = n.center();
      const bool on_row = std::abs(nc.y - c.y) < 10.0;
      const bool on_col = std::abs(nc.x - c.x) < 10.0;
      EXPECT_TRUE(on_row || on_col);
    }
  }
}

TEST(ClipGenerator, NeighborsRespectMinimumPitch) {
  auto gen = make_generator(7);
  for (int i = 0; i < 30; ++i) {
    const auto clip = gen.generate();
    for (const auto& n : clip.neighbors) {
      const double d = lg::distance(n.center(), clip.target.center());
      EXPECT_GE(d, 136.0 - 2 * 5.0 - 1e-9);  // pitch minus jitter allowance
    }
  }
}

TEST(ClipGenerator, GridClipsHaveBothAxes) {
  auto gen = make_generator(9);
  bool found_2d = false;
  for (int i = 0; i < 20 && !found_2d; ++i) {
    const auto clip = gen.generate(ly::ArrayType::kGrid);
    const auto c = clip.center();
    bool off_row = false;
    bool off_col = false;
    for (const auto& n : clip.neighbors) {
      if (std::abs(n.center().y - c.y) > 20.0) off_row = true;
      if (std::abs(n.center().x - c.x) > 20.0) off_col = true;
    }
    found_2d = off_row && off_col;
  }
  EXPECT_TRUE(found_2d);
}

TEST(ClipGenerator, DatasetCyclesAllTypes) {
  auto gen = make_generator(13);
  const auto clips = gen.generate_dataset(9);
  ASSERT_EQ(clips.size(), 9u);
  std::set<ly::ArrayType> seen;
  for (const auto& c : clips) seen.insert(c.array_type);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ClipGenerator, DeterministicForSameSeed) {
  auto a = make_generator(21);
  auto b = make_generator(21);
  for (int i = 0; i < 5; ++i) {
    const auto ca = a.generate();
    const auto cb = b.generate();
    ASSERT_EQ(ca.neighbors.size(), cb.neighbors.size());
    for (std::size_t k = 0; k < ca.neighbors.size(); ++k) {
      EXPECT_EQ(ca.neighbors[k], cb.neighbors[k]);
    }
  }
}

TEST(ClipGenerator, UniqueIds) {
  auto gen = make_generator(23);
  std::set<std::string> ids;
  for (int i = 0; i < 12; ++i) ids.insert(gen.generate().id);
  EXPECT_EQ(ids.size(), 12u);
}

TEST(ClipGenerator, RejectsBadConfig) {
  ly::GeneratorConfig bad;
  bad.pitch_min_factor = 0.5;  // below process minimum
  EXPECT_THROW(ly::ClipGenerator(test_process(), bad, lu::Rng(1)),
               lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// SRAF insertion
// ---------------------------------------------------------------------------

TEST(Sraf, IsolatedContactGetsFourBars) {
  auto gen = make_generator(31);
  auto clip = gen.generate(ly::ArrayType::kIsolated);
  clip.neighbors.clear();  // force truly isolated
  ly::SrafInserter inserter(test_process(), ly::SrafConfig{});
  inserter.insert(clip);
  EXPECT_EQ(clip.srafs.size(), 4u);
}

TEST(Sraf, BarsAreSubResolutionAndClear) {
  auto gen = make_generator(33);
  ly::SrafInserter inserter(test_process(), ly::SrafConfig{});
  for (int i = 0; i < 10; ++i) {
    auto clip = gen.generate();
    inserter.insert(clip);
    for (const auto& bar : clip.srafs) {
      EXPECT_LT(std::min(bar.width(), bar.height()), 60.0);
      for (const auto& contact : clip.drawn_contacts()) {
        EXPECT_FALSE(bar.intersects(contact));
      }
      for (const auto& other : clip.srafs) {
        if (&other == &bar) continue;
        EXPECT_FALSE(bar.intersects(other));
      }
    }
  }
}

TEST(Sraf, DenseSideSuppressed) {
  // Two contacts at minimum pitch: the facing sides must not get bars.
  auto p = test_process();
  ly::MaskClip clip;
  clip.extent_nm = p.grid.extent_nm;
  clip.target = lg::Rect::from_center(clip.center(), 60.0, 60.0);
  clip.neighbors.push_back(lg::Rect::from_center(
      {clip.center().x + p.min_pitch_nm, clip.center().y}, 60.0, 60.0));
  ly::SrafConfig cfg;
  ly::SrafInserter inserter(p, cfg);
  inserter.insert(clip);
  for (const auto& bar : clip.srafs) {
    // No bar in the corridor between the two contacts.
    const bool between = bar.center().x > clip.center().x + 30.0 &&
                         bar.center().x < clip.center().x + p.min_pitch_nm - 30.0 &&
                         std::abs(bar.center().y - clip.center().y) < 40.0;
    EXPECT_FALSE(between);
  }
}

TEST(Sraf, InvalidConfigRejected) {
  ly::SrafConfig cfg;
  cfg.bar_width_nm = 70.0;  // wider than the contact: would print
  EXPECT_THROW(ly::SrafInserter(test_process(), cfg), lu::InvalidArgument);
}

// ---------------------------------------------------------------------------
// OPC
// ---------------------------------------------------------------------------

TEST(Opc, RuleBasedBiasesByDensity) {
  auto gen = make_generator(41);
  auto clip = gen.generate(ly::ArrayType::kIsolated);
  clip.neighbors.clear();
  ly::OpcEngine opc(ly::OpcConfig{});
  opc.run_rule_based(clip);
  ASSERT_TRUE(clip.has_opc());
  // Isolated contact gets the larger bias.
  EXPECT_NEAR(clip.target_opc.width(), 60.0 + 2 * 4.0, 1e-9);

  // Dense pair gets the smaller bias.
  clip.neighbors.push_back(
      lg::Rect::from_center({clip.center().x + 140.0, clip.center().y}, 60.0, 60.0));
  opc.run_rule_based(clip);
  EXPECT_NEAR(clip.target_opc.width(), 60.0 + 2 * 1.0, 1e-9);
  EXPECT_EQ(clip.neighbors_opc.size(), 1u);
}

TEST(Opc, ModelBasedImprovesPrintedCd) {
  ll::Simulator sim(test_process());
  sim.calibrate_dose();

  auto gen = make_generator(43);
  auto clip = gen.generate(ly::ArrayType::kRow);
  ly::SrafInserter inserter(test_process(), ly::SrafConfig{});
  inserter.insert(clip);

  // Error without OPC (drawn mask straight to the scanner).
  const auto before = sim.run(clip.drawn_contacts());
  const auto cd_before = ll::measure_cd(before.contours, clip.center());
  const double err_before = std::abs(cd_before.width_nm - 60.0) +
                            std::abs(cd_before.height_nm - 60.0);

  ly::OpcEngine opc(ly::OpcConfig{});
  opc.run_model_based(clip, sim);
  const auto after = sim.run(clip.all_openings());
  const auto cd_after = ll::measure_cd(after.contours, clip.center());
  const double err_after = std::abs(cd_after.width_nm - 60.0) +
                           std::abs(cd_after.height_nm - 60.0);

  EXPECT_GT(cd_after.width_nm, 0.0);
  EXPECT_LE(err_after, err_before + 1.0);  // OPC never makes it much worse
  EXPECT_LT(err_after, 12.0);              // and lands reasonably close
}

TEST(Opc, CorrectionRespectsMaxBias) {
  ll::Simulator sim(test_process());
  sim.calibrate_dose();
  auto gen = make_generator(47);
  ly::OpcConfig cfg;
  cfg.max_bias_nm = 3.0;
  ly::OpcEngine opc(cfg);
  auto clip = gen.generate(ly::ArrayType::kGrid);
  opc.run_model_based(clip, sim);
  EXPECT_LE(clip.target_opc.width(), 60.0 + 2 * 3.0 + 1e-9);
  EXPECT_GE(clip.target_opc.width(), 60.0 - 2 * 3.0 - 1e-9);
}

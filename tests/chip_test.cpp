// Gates on the full-chip streaming pipeline:
//   * the chip layout is a pure function of (seed, cell) — regenerating or
//     re-indexing it can never move a contact;
//   * halo geometry: pixel-aligned halo, exact tile windows, half-open core
//     ownership;
//   * ownership bit-identity: the pipeline's stitched result for a contact
//     (including one hugging a tile seam) is byte-identical to simulating
//     the owner tile's window with a standalone simulator;
//   * translation equivariance: shifting a contact cluster by exactly one
//     core pitch hands it to the neighbor tile and reproduces the same
//     tile-local simulation bit for bit — the keystone that makes seam
//     placement invisible;
//   * stitched output is byte-identical serial and at 1/2/8 threads;
//   * the tile ring stays at min(ring_depth, tiles) slots however many
//     tiles stream through;
//   * the learned path covers exactly the same owned contacts as the golden
//     path (divergence smoke with an untrained model);
//   * learned tile invariance: every contact's chip-path result is byte-
//     identical to a standalone batch-1 prediction on the same clip, so the
//     batch a contact shares with its tile neighbors never shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "chip/layout.hpp"
#include "chip/pipeline.hpp"
#include "core/config.hpp"
#include "core/lithogan.hpp"
#include "data/render.hpp"
#include "geometry/marching_squares.hpp"
#include "geometry/primitives.hpp"
#include "litho/process.hpp"
#include "litho/simulator.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"

namespace lch = lithogan::chip;
namespace lc = lithogan::core;
namespace ld = lithogan::data;
namespace lg = lithogan::geometry;
namespace li = lithogan::image;
namespace ll = lithogan::litho;
namespace lu = lithogan::util;

namespace {

struct QuietLogs {
  QuietLogs() { lu::set_log_level(lu::LogLevel::kWarn); }
} const quiet_logs;

/// Clip-scale process with a reduced source (8 points) for test speed,
/// calibrated once so contacts actually print.
const ll::ProcessConfig& calibrated_process() {
  static const ll::ProcessConfig process = [] {
    ll::ProcessConfig base = ll::ProcessConfig::n10();
    base.optical.source_rings = 1;
    base.optical.source_points_per_ring = 8;
    ll::Simulator sim(base);
    sim.calibrate_dose();
    return sim.process();
  }();
  return process;
}

/// halo_lobes = 1 keeps the tile core large enough for multi-tile chips on
/// a 1024 nm tile grid; the bit-identity contracts hold for any halo.
lch::ChipConfig base_config(double chip_nm) {
  lch::ChipConfig cfg;
  cfg.chip_nm = chip_nm;
  cfg.tile_extent_nm = 1024.0;
  cfg.tile_pixels = 256;
  cfg.halo_lobes = 1.0;
  cfg.cell_nm = 512.0;
  return cfg;
}

/// Halo/core of base_config tiles, probed once (they depend on the pupil
/// support, which the test must not hard-code).
struct TileGeom {
  double halo_nm = 0.0;
  double core_nm = 0.0;
};
const TileGeom& tile_geom() {
  static const TileGeom geom = [] {
    const lch::ChipConfig cfg = base_config(2048.0);
    const lch::ChipLayout probe(calibrated_process(), cfg,
                                {lg::Rect::from_center({1024.0, 1024.0}, 60.0, 60.0)});
    const lch::ChipPipeline pipe(calibrated_process(), probe);
    return TileGeom{pipe.halo_nm(), pipe.core_nm()};
  }();
  return geom;
}

struct TileResults {
  std::size_t tile = 0;
  std::vector<lch::ContactResult> results;
};

std::vector<TileResults> collect_golden(lch::ChipPipeline& pipe,
                                        lu::ExecContext* unused = nullptr) {
  (void)unused;
  std::vector<TileResults> out;
  pipe.run_golden([&](std::size_t tile, std::span<const lch::ContactResult> r) {
    out.push_back({tile, {r.begin(), r.end()}});
  });
  return out;
}

void append_bytes(std::vector<unsigned char>& buf, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  buf.insert(buf.end(), b, b + n);
}

std::vector<unsigned char> serialize(const std::vector<TileResults>& tiles) {
  std::vector<unsigned char> buf;
  for (const TileResults& t : tiles) {
    append_bytes(buf, &t.tile, sizeof(t.tile));
    for (const lch::ContactResult& r : t.results) {
      append_bytes(buf, &r.contact, sizeof(r.contact));
      const unsigned char printed = r.printed ? 1 : 0;
      append_bytes(buf, &printed, 1);
      append_bytes(buf, &r.center_nm, sizeof(r.center_nm));
      append_bytes(buf, &r.cd_width_nm, sizeof(r.cd_width_nm));
      append_bytes(buf, &r.cd_height_nm, sizeof(r.cd_height_nm));
      for (const lg::Point& p : r.contour.vertices()) {
        append_bytes(buf, &p, sizeof(p));
      }
    }
  }
  return buf;
}

/// Mirrors the pipeline's stitch rule: the contour whose bounding box
/// contains `p` with the smallest area.
const lg::Polygon* pick_contour(const std::vector<lg::Polygon>& contours,
                                const lg::Point& p) {
  const lg::Polygon* best = nullptr;
  double best_area = std::numeric_limits<double>::infinity();
  for (const lg::Polygon& c : contours) {
    const lg::Rect box = c.bounding_box();
    if (!box.contains(p)) continue;
    if (box.area() < best_area) {
      best_area = box.area();
      best = &c;
    }
  }
  return best;
}

/// Standalone reference: simulate one tile's window exactly as the pipeline
/// rasterizes it, with a fresh simulator.
ll::SimulationResult simulate_tile(const lch::ChipPipeline& pipe,
                                   const lch::ChipLayout& layout, std::size_t tile) {
  ll::Simulator sim(pipe.tile_process());
  const lg::Rect window = pipe.tile_window(tile % pipe.tiles_x(), tile / pipe.tiles_x());
  std::vector<std::uint32_t> idx;
  layout.query(window, idx);
  std::vector<lg::Rect> openings;
  for (const std::uint32_t i : idx) {
    openings.push_back(layout.contacts()[i].opc.translated({-window.lo.x, -window.lo.y}));
  }
  return sim.run(openings);
}

const lch::ContactResult* find_result(const std::vector<TileResults>& tiles,
                                      std::size_t tile, std::uint32_t contact) {
  for (const TileResults& t : tiles) {
    if (t.tile != tile) continue;
    for (const lch::ContactResult& r : t.results) {
      if (r.contact == contact) return &r;
    }
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

TEST(ChipLayout, GenerationIsDeterministicAndIndexed) {
  const lch::ChipConfig cfg = base_config(2048.0);
  const lch::ChipLayout a(calibrated_process(), cfg);
  const lch::ChipLayout b(calibrated_process(), cfg);
  ASSERT_FALSE(a.contacts().empty());
  ASSERT_EQ(a.contacts().size(), b.contacts().size());
  for (std::size_t i = 0; i < a.contacts().size(); ++i) {
    EXPECT_EQ(a.contacts()[i].drawn, b.contacts()[i].drawn);
    EXPECT_EQ(a.contacts()[i].opc, b.contacts()[i].opc);
    EXPECT_EQ(a.contacts()[i].cell, b.contacts()[i].cell);
    // The OPC rectangle is the drawn rectangle inflated by a positive bias.
    EXPECT_GT(a.contacts()[i].opc.width(), a.contacts()[i].drawn.width());
  }

  // Window queries return ascending indices and honor the window.
  std::vector<std::uint32_t> idx;
  a.query({{0.0, 0.0}, {1024.0, 1024.0}}, idx);
  ASSERT_FALSE(idx.empty());
  for (std::size_t k = 1; k < idx.size(); ++k) EXPECT_LT(idx[k - 1], idx[k]);
  for (const std::uint32_t i : idx) {
    EXPECT_TRUE(a.contacts()[i].opc.intersects({{0.0, 0.0}, {1024.0, 1024.0}}));
  }
  std::vector<std::uint32_t> all;
  a.query({{-1e9, -1e9}, {1e9, 1e9}}, all);
  EXPECT_EQ(all.size(), a.contacts().size());
}

// ---------------------------------------------------------------------------
// Halo geometry
// ---------------------------------------------------------------------------

TEST(ChipPipeline, HaloIsPixelAlignedAndWindowsAreExact) {
  const TileGeom& geom = tile_geom();
  const lch::ChipConfig cfg = base_config(2.0 * geom.core_nm);
  const lch::ChipLayout layout(calibrated_process(), cfg,
                               {lg::Rect::from_center({300.0, 300.0}, 60.0, 60.0)});
  const lch::ChipPipeline pipe(calibrated_process(), layout);

  const double px = pipe.tile_process().grid.pixel_nm();
  EXPECT_GT(pipe.halo_nm(), 0.0);
  EXPECT_EQ(std::fmod(pipe.halo_nm(), px), 0.0);
  EXPECT_GT(pipe.core_nm(), 0.0);
  EXPECT_EQ(pipe.core_nm() + 2.0 * pipe.halo_nm(), cfg.tile_extent_nm);
  // The halo must cover at least the resist reach on its own.
  EXPECT_GE(pipe.halo_nm(), 4.0 * pipe.tile_process().resist.diffusion_length_nm);

  ASSERT_EQ(pipe.tiles_x(), 2u);
  ASSERT_EQ(pipe.tiles_y(), 2u);
  for (std::size_t iy = 0; iy < 2; ++iy) {
    for (std::size_t ix = 0; ix < 2; ++ix) {
      const lg::Rect w = pipe.tile_window(ix, iy);
      EXPECT_EQ(w.lo.x, static_cast<double>(ix) * pipe.core_nm() - pipe.halo_nm());
      EXPECT_EQ(w.lo.y, static_cast<double>(iy) * pipe.core_nm() - pipe.halo_nm());
      EXPECT_EQ(w.width(), cfg.tile_extent_nm);
      EXPECT_EQ(w.height(), cfg.tile_extent_nm);
    }
  }

  // Ownership is half-open: a center exactly on the core boundary belongs
  // to the next tile; edges clamp into the chip.
  const double c = pipe.core_nm();
  EXPECT_EQ(pipe.owner_tile({c - 0.5, 10.0}), 0u);
  EXPECT_EQ(pipe.owner_tile({c, 10.0}), 1u);
  EXPECT_EQ(pipe.owner_tile({10.0, c}), 2u);
  EXPECT_EQ(pipe.owner_tile({1e9, 1e9}), 3u);
}

// ---------------------------------------------------------------------------
// Ownership bit-identity
// ---------------------------------------------------------------------------

TEST(ChipPipeline, SeamContactMatchesStandaloneOwnerSimulation) {
  const TileGeom& geom = tile_geom();
  const double c = std::floor(geom.core_nm);
  ASSERT_EQ(c, geom.core_nm) << "core must be a whole number of nm";
  const lch::ChipConfig cfg = base_config(2.0 * c);

  // Two contacts hugging the vertical seam at x = core (owned by tile 0 and
  // tile 1 respectively — each appears in the other's halo) plus an
  // isolated one.
  const std::vector<lg::Rect> drawn = {
      lg::Rect::from_center({c - 70.0, 300.0}, 60.0, 60.0),
      lg::Rect::from_center({c + 70.0, 300.0}, 60.0, 60.0),
      lg::Rect::from_center({300.0, c + 200.0}, 60.0, 60.0),
  };
  const lch::ChipLayout layout(calibrated_process(), cfg, drawn);
  lch::ChipPipeline pipe(calibrated_process(), layout);
  const auto tiles = collect_golden(pipe);

  std::size_t checked = 0;
  for (std::uint32_t i = 0; i < layout.contacts().size(); ++i) {
    const lg::Point center = layout.contacts()[i].drawn.center();
    const std::size_t owner = pipe.owner_tile(center);
    const lch::ContactResult* r = find_result(tiles, owner, i);
    ASSERT_NE(r, nullptr) << "contact " << i << " missing from owner tile " << owner;

    const ll::SimulationResult ref = simulate_tile(pipe, layout, owner);
    const lg::Rect window =
        pipe.tile_window(owner % pipe.tiles_x(), owner / pipe.tiles_x());
    const lg::Point local{center.x - window.lo.x, center.y - window.lo.y};
    const lg::Polygon* best = pick_contour(ref.contours, local);
    ASSERT_NE(best, nullptr) << "calibrated contact " << i << " did not print";
    ASSERT_TRUE(r->printed);
    ASSERT_EQ(r->contour.size(), best->size());
    for (std::size_t v = 0; v < best->size(); ++v) {
      // Same stitch expression as the pipeline -> bitwise comparable.
      EXPECT_EQ(r->contour.vertices()[v].x, best->vertices()[v].x + window.lo.x);
      EXPECT_EQ(r->contour.vertices()[v].y, best->vertices()[v].y + window.lo.y);
    }
    ++checked;
  }
  EXPECT_EQ(checked, drawn.size());

  // No contact is reported twice (the halo copies are suppressed).
  std::size_t reported = 0;
  for (const TileResults& t : tiles) reported += t.results.size();
  EXPECT_EQ(reported, drawn.size());
}

// ---------------------------------------------------------------------------
// Translation equivariance
// ---------------------------------------------------------------------------

TEST(ChipPipeline, CorePitchTranslationIsBitIdentical) {
  const TileGeom& geom = tile_geom();
  const double c = geom.core_nm;
  const lch::ChipConfig cfg = base_config(2.0 * c);

  // A cluster on integer coordinates inside tile 0's core; the translated
  // copy lands in tile 1's core. Integer coordinates + an integer core
  // pitch keep every mask-geometry computation exact, so the tile-local
  // problems are identical to the last bit.
  const std::vector<lg::Point> centers = {
      {200.0, 300.0}, {330.0, 300.0}, {200.0, 430.0}};
  std::vector<lg::Rect> drawn_a;
  std::vector<lg::Rect> drawn_b;
  for (const lg::Point& p : centers) {
    drawn_a.push_back(lg::Rect::from_center(p, 60.0, 60.0));
    drawn_b.push_back(lg::Rect::from_center({p.x + c, p.y}, 60.0, 60.0));
  }
  const lch::ChipLayout layout_a(calibrated_process(), cfg, drawn_a);
  const lch::ChipLayout layout_b(calibrated_process(), cfg, drawn_b);
  lch::ChipPipeline pipe_a(calibrated_process(), layout_a);
  lch::ChipPipeline pipe_b(calibrated_process(), layout_b);

  // Ownership shifts exactly one tile over.
  for (std::size_t k = 0; k < centers.size(); ++k) {
    const std::size_t owner_a = pipe_a.owner_tile(layout_a.contacts()[k].drawn.center());
    const std::size_t owner_b = pipe_b.owner_tile(layout_b.contacts()[k].drawn.center());
    EXPECT_EQ(owner_a, 0u);
    EXPECT_EQ(owner_b, 1u);
  }

  // The owner windows sit at different chip positions but pose the same
  // tile-local problem: openings, fields and contours are bit-identical.
  const ll::SimulationResult ref_a = simulate_tile(pipe_a, layout_a, 0);
  const ll::SimulationResult ref_b = simulate_tile(pipe_b, layout_b, 1);
  ASSERT_EQ(ref_a.develop.values.size(), ref_b.develop.values.size());
  EXPECT_EQ(std::memcmp(ref_a.develop.values.data(), ref_b.develop.values.data(),
                        ref_a.develop.values.size() * sizeof(double)),
            0)
      << "develop fields differ bitwise across the translation";
  ASSERT_EQ(ref_a.contours.size(), ref_b.contours.size());
  for (std::size_t p = 0; p < ref_a.contours.size(); ++p) {
    ASSERT_EQ(ref_a.contours[p].size(), ref_b.contours[p].size());
    for (std::size_t v = 0; v < ref_a.contours[p].size(); ++v) {
      EXPECT_EQ(ref_a.contours[p].vertices()[v].x, ref_b.contours[p].vertices()[v].x);
      EXPECT_EQ(ref_a.contours[p].vertices()[v].y, ref_b.contours[p].vertices()[v].y);
    }
  }

  // And the full pipeline agrees with those references (which, with the
  // check above, chains the bit-identity through to the stitched output).
  const auto tiles_a = collect_golden(pipe_a);
  const auto tiles_b = collect_golden(pipe_b);
  for (std::uint32_t k = 0; k < centers.size(); ++k) {
    const lch::ContactResult* ra = find_result(tiles_a, 0, k);
    const lch::ContactResult* rb = find_result(tiles_b, 1, k);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(ra->printed, rb->printed);
    EXPECT_EQ(ra->contour.size(), rb->contour.size());
    EXPECT_EQ(ra->cd_width_nm, rb->cd_width_nm);
    EXPECT_EQ(ra->cd_height_nm, rb->cd_height_nm);
  }
}

// ---------------------------------------------------------------------------
// Thread invariance
// ---------------------------------------------------------------------------

TEST(ChipPipeline, GoldenStreamIsByteIdenticalAcrossThreadCounts) {
  const TileGeom& geom = tile_geom();
  const lch::ChipConfig cfg = base_config(2.0 * geom.core_nm);
  const lch::ChipLayout layout(calibrated_process(), cfg);
  ASSERT_FALSE(layout.contacts().empty());

  lch::ChipPipeline serial(calibrated_process(), layout);
  const std::vector<unsigned char> want = serialize(collect_golden(serial));
  ASSERT_FALSE(want.empty());

  for (const std::size_t threads : {1u, 2u, 8u}) {
    lu::ExecContext exec(threads);
    lch::ChipPipeline pipe(calibrated_process(), layout, &exec);
    const std::vector<unsigned char> got = serialize(collect_golden(pipe));
    EXPECT_EQ(want, got) << "stream differs at " << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Bounded ring
// ---------------------------------------------------------------------------

TEST(ChipPipeline, RingStaysAtConfiguredDepth) {
  const TileGeom& geom = tile_geom();
  // A chip that needs a 3x3 tiling but only 2 ring slots.
  lch::ChipConfig cfg = base_config(2.0 * geom.core_nm + 1.0);
  cfg.ring_depth = 2;
  const lch::ChipLayout layout(
      calibrated_process(), cfg,
      {lg::Rect::from_center({300.0, 300.0}, 60.0, 60.0),
       lg::Rect::from_center({300.0 + geom.core_nm, 300.0}, 60.0, 60.0)});
  lch::ChipPipeline pipe(calibrated_process(), layout);
  ASSERT_EQ(pipe.tiles(), 9u);

  std::vector<std::size_t> order;
  pipe.run_golden([&](std::size_t tile, std::span<const lch::ContactResult>) {
    order.push_back(tile);
  });
  // Every tile streamed exactly once, in ascending order, through 2 slots.
  ASSERT_EQ(order.size(), 9u);
  for (std::size_t k = 0; k < order.size(); ++k) EXPECT_EQ(order[k], k);
  EXPECT_EQ(pipe.stats().ring_slots, 2u);
  EXPECT_LT(pipe.stats().ring_slots, pipe.tiles());
  EXPECT_GT(pipe.stats().ring_bytes, 0u);
  EXPECT_EQ(pipe.stats().tiles_run, 9u);
  EXPECT_EQ(pipe.stats().contacts_done, 2u);
}

// ---------------------------------------------------------------------------
// Learned path
// ---------------------------------------------------------------------------

TEST(ChipPipeline, LearnedPathCoversSameContactsAsGolden) {
  const TileGeom& geom = tile_geom();
  const double c = geom.core_nm;
  lch::ChipConfig cfg = base_config(2.0 * c);
  cfg.infer_batch = 2;  // force mid-tile flushes
  const std::vector<lg::Rect> drawn = {
      lg::Rect::from_center({300.0, 300.0}, 60.0, 60.0),
      lg::Rect::from_center({430.0, 300.0}, 60.0, 60.0),
      lg::Rect::from_center({300.0 + c, 300.0}, 60.0, 60.0),
      lg::Rect::from_center({300.0, 300.0 + c}, 60.0, 60.0),
      lg::Rect::from_center({430.0 + c, 430.0 + c}, 60.0, 60.0),
  };
  const lch::ChipLayout layout(calibrated_process(), cfg, drawn);
  lch::ChipPipeline pipe(calibrated_process(), layout);

  lc::LithoGanConfig model_cfg = lc::LithoGanConfig::tiny();
  model_cfg.image_size = 16;
  model_cfg.base_channels = 6;
  model_cfg.max_channels = 24;
  lc::LithoGan model(model_cfg, lc::Mode::kDualLearning);

  std::map<std::size_t, std::vector<std::uint32_t>> golden;
  pipe.run_golden([&](std::size_t tile, std::span<const lch::ContactResult> r) {
    for (const lch::ContactResult& x : r) golden[tile].push_back(x.contact);
  });
  std::map<std::size_t, std::vector<std::uint32_t>> learned;
  std::size_t printed_mismatch = 0;
  pipe.run_learned(model, [&](std::size_t tile, std::span<const lch::ContactResult> r) {
    for (const lch::ContactResult& x : r) {
      learned[tile].push_back(x.contact);
      if (x.printed) {
        EXPECT_GT(x.contour.size(), 2u);
        EXPECT_GT(x.cd_width_nm, 0.0);
      } else {
        ++printed_mismatch;  // untrained model may print nothing; just count
      }
    }
  });

  // Both paths own exactly the same contacts on exactly the same tiles.
  EXPECT_EQ(golden, learned);
  std::size_t total = 0;
  for (const auto& [tile, ids] : learned) total += ids.size();
  EXPECT_EQ(total, drawn.size());
  EXPECT_LE(printed_mismatch, drawn.size());

  // A second learned pass reuses the warm state and yields the same stream.
  std::map<std::size_t, std::vector<std::uint32_t>> again;
  pipe.run_learned(model, [&](std::size_t tile, std::span<const lch::ContactResult> r) {
    for (const lch::ContactResult& x : r) again[tile].push_back(x.contact);
  });
  EXPECT_EQ(learned, again);
}

TEST(ChipPipeline, LearnedStreamIsByteIdenticalAcrossThreadCounts) {
  const TileGeom& geom = tile_geom();
  const double c = geom.core_nm;
  const lch::ChipConfig cfg = base_config(2.0 * c);
  const lch::ChipLayout layout(
      calibrated_process(), cfg,
      {lg::Rect::from_center({300.0, 300.0}, 60.0, 60.0),
       lg::Rect::from_center({430.0, 300.0}, 60.0, 60.0),
       lg::Rect::from_center({300.0 + c, 300.0 + c}, 60.0, 60.0)});

  lc::LithoGanConfig model_cfg = lc::LithoGanConfig::tiny();
  model_cfg.image_size = 16;
  model_cfg.base_channels = 6;
  model_cfg.max_channels = 24;

  const auto run = [&](lu::ExecContext* exec) {
    lc::LithoGanConfig cfg_t = model_cfg;
    cfg_t.exec = exec;  // same seed -> identical weights; only threading differs
    lc::LithoGan model(cfg_t, lc::Mode::kDualLearning);
    lch::ChipPipeline pipe(calibrated_process(), layout);
    std::vector<TileResults> out;
    pipe.run_learned(model, [&](std::size_t tile, std::span<const lch::ContactResult> r) {
      out.push_back({tile, {r.begin(), r.end()}});
    });
    return serialize(out);
  };

  const std::vector<unsigned char> want = run(nullptr);
  ASSERT_FALSE(want.empty());
  for (const std::size_t threads : {1u, 2u, 8u}) {
    lu::ExecContext exec(threads);
    EXPECT_EQ(want, run(&exec)) << "learned stream differs at " << threads
                                << " threads";
  }
}

// Every contact of a small generated chip, through the learned pipeline in
// full batches, against a standalone batch-1 prediction on the same clip:
// the clip, render, predict and contour steps spelled out here exactly as
// the pipeline runs them, with a fresh model and scratch.
TEST(ChipPipeline, LearnedContactsMatchStandaloneBatchOnePrediction) {
  const lch::ChipConfig cfg = base_config(3072.0);
  const lch::ChipLayout layout(calibrated_process(), cfg);
  lch::ChipPipeline pipe(calibrated_process(), layout);

  lc::LithoGanConfig model_cfg = lc::LithoGanConfig::tiny();
  model_cfg.image_size = 16;
  model_cfg.base_channels = 6;
  model_cfg.max_channels = 24;
  lc::LithoGan chip_model(model_cfg, lc::Mode::kDualLearning);
  std::vector<lch::ContactResult> chip;
  std::size_t widest_tile = 0;
  pipe.run_learned(chip_model, [&](std::size_t, std::span<const lch::ContactResult> r) {
    chip.insert(chip.end(), r.begin(), r.end());
    widest_tile = std::max(widest_tile, r.size());
  });
  ASSERT_EQ(chip.size(), layout.contacts().size());
  ASSERT_GT(widest_tile, 1u) << "no tile batches more than one contact";

  lc::LithoGan model(model_cfg, lc::Mode::kDualLearning);  // same seed, same weights
  const ll::ProcessConfig& process = calibrated_process();
  const std::size_t size = model_cfg.image_size;
  ld::RenderConfig rc;
  rc.mask_size_px = size;
  rc.resist_size_px = size;
  rc.crop_window_nm = process.crop_window_nm;
  const double extent = process.grid.extent_nm;
  const double px = rc.crop_window_nm / static_cast<double>(size);
  ld::Sample sample;
  li::Image image;
  const ld::Sample* sample_ptr = &sample;
  li::Image* image_ptr = &image;
  lc::PredictScratch scratch;
  std::vector<std::uint32_t> near;
  std::vector<double> grid;
  lg::ContourScratch contour_scratch;
  std::vector<lg::Polygon> pool;
  for (const lch::ContactResult& got : chip) {
    const lch::ChipContact& contact = layout.contacts()[got.contact];
    const lg::Point center = contact.drawn.center();
    const lg::Point off{extent / 2.0 - center.x, extent / 2.0 - center.y};
    lithogan::layout::MaskClip clip;
    clip.extent_nm = extent;
    clip.target = contact.drawn.translated(off);
    clip.target_opc = contact.opc.translated(off);
    layout.query({{center.x - extent / 2.0, center.y - extent / 2.0},
                  {center.x + extent / 2.0, center.y + extent / 2.0}},
                 near);
    for (const std::uint32_t j : near) {
      if (j == got.contact) continue;
      clip.neighbors.push_back(layout.contacts()[j].drawn.translated(off));
      clip.neighbors_opc.push_back(layout.contacts()[j].opc.translated(off));
    }
    ld::render_mask_into(clip, rc, sample.mask_rgb);
    sample.resist_pixel_nm = px;
    model.predict_batch_into(std::span<const ld::Sample* const>(&sample_ptr, 1),
                             std::span<li::Image* const>(&image_ptr, 1), scratch);

    lch::ContactResult want;
    want.contact = got.contact;
    want.center_nm = center;
    grid.resize(size * size);
    const std::span<const float> ch = image.channel(0);
    for (std::size_t p = 0; p < size * size; ++p) grid[p] = static_cast<double>(ch[p]);
    const std::size_t found =
        lg::extract_contours_into(grid, size, size, 0.5, contour_scratch, pool);
    const lg::Polygon* best = nullptr;
    for (std::size_t c = 0; c < found; ++c) {
      if (best == nullptr || pool[c].area() > best->area()) best = &pool[c];
    }
    if (best != nullptr && best->size() >= 3) {
      const lg::Point org{center.x - rc.crop_window_nm / 2.0 + 0.5 * px,
                          center.y - rc.crop_window_nm / 2.0 + 0.5 * px};
      want.printed = true;
      for (const lg::Point& v : best->vertices()) {
        want.contour.push_back({org.x + v.x * px, org.y + v.y * px});
      }
      const lg::Rect box = best->bounding_box();
      want.cd_width_nm = box.width() * px;
      want.cd_height_nm = box.height() * px;
      want.center_nm = {org.x + box.center().x * px, org.y + box.center().y * px};
    }
    EXPECT_EQ(serialize({{0, {got}}}), serialize({{0, {want}}}))
        << "contact " << got.contact << " differs from its batch-1 prediction";
  }
}

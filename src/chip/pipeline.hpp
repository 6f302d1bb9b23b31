// Full-chip streaming pipeline: halo-tiled simulation with amortized
// precompute and bounded memory.
//
// The chip window is covered by disjoint tile *cores* of core_nm pitch;
// each simulated tile is its core plus a halo on every side, sized from the
// optical kernel ambit (pupil support) plus the resist diffusion and VTR
// window reach — never hard-coded. Every contact is *owned* by exactly one
// tile: the one whose half-open core contains its drawn center, a pure
// function of the layout, so ownership can never depend on floating-point
// simulation output, tile visit order or thread count. A tile simulates
// everything inside core + halo but reports only its owned contacts;
// stitching a contour into chip space is then a translation of the owner
// tile's local contour — seams need no geometric merging because the halo
// guarantees the owner window already contains the whole neighborhood that
// shapes the contour.
//
// Perf structure (the point of the subsystem):
//   * all per-process precompute — optical transfer windows, FFT/conv
//     plans, inference plans, resist tables — is hoisted out of the tile
//     loop: the golden path keeps one calibrated simulator clone per worker
//     alive across the whole run, the learned path reuses one
//     core::PredictScratch and warm sample/image slots, so plan-cache
//     counters show misses only while the first tiles warm up;
//   * a fixed-depth ring of tile slots bounds memory: at most ring_depth
//     tiles are ever materialized, whatever the chip size;
//   * the learned tile loop performs zero heap allocations once warm
//     (tests/runtime_gates_test.cpp gates this with a counting operator
//     new).
//
// See docs/chip_pipeline.md for the halo math and the bit-identity
// contract the tests enforce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "chip/layout.hpp"
#include "core/lithogan.hpp"
#include "data/sample.hpp"
#include "geometry/marching_squares.hpp"
#include "geometry/polygon.hpp"
#include "litho/simulator.hpp"
#include "util/exec_context.hpp"

namespace lithogan::chip {

/// Stitched, chip-space result for one owned contact.
struct ContactResult {
  std::uint32_t contact = 0;      ///< index into ChipLayout::contacts()
  bool printed = false;
  geometry::Point center_nm;      ///< printed bbox center (drawn center if not printed)
  double cd_width_nm = 0.0;
  double cd_height_nm = 0.0;
  geometry::Polygon contour;      ///< printed contour, chip-space nm
};

struct ChipStats {
  std::size_t tiles_x = 0;
  std::size_t tiles_y = 0;
  std::size_t tiles_run = 0;      ///< cumulative over runs
  std::size_t contacts_done = 0;  ///< cumulative over runs
  std::size_t ring_slots = 0;     ///< tile slots materialized (<= ring_depth)
  std::size_t ring_bytes = 0;     ///< slot-owned buffer capacity, peak-RSS proxy
};

class ChipPipeline {
 public:
  /// `process` is the clip-scale process (pass an already-calibrated
  /// config — e.g. litho::Simulator::process() after calibrate_dose — to
  /// share the dose across every tile); the pipeline re-grids it to the
  /// layout's tile_extent_nm x tile_pixels. `exec` (not owned, nullable)
  /// parallelizes the golden path across tiles.
  ChipPipeline(const litho::ProcessConfig& process, const ChipLayout& layout,
               util::ExecContext* exec = nullptr);
  ~ChipPipeline();  // out of line: LearnedState is an incomplete type here

  /// Per-tile result callback. Called serially, in ascending tile index
  /// order; the span points into ring-slot storage and is valid only for
  /// the duration of the call. Results within a tile are in ascending
  /// contact-index order.
  using Sink = std::function<void(std::size_t tile, std::span<const ContactResult>)>;

  /// Streams every tile through rasterize -> simulate -> stitch. Tiles in
  /// each ring wave fan out across the pool (one persistent serial-clone
  /// simulator per worker); stitching and the sink run serially in tile
  /// order. Bit-identical at any thread count including serial.
  void run_golden(const Sink& sink);

  /// Streams every tile through the learned path: per owned contact a
  /// clip-local mask is rendered and batched through
  /// core::LithoGan::predict_batch_into (single-threaded by contract, so
  /// the tile loop is serial; the plans parallelize internally over
  /// `process.exec`/the model's exec). Zero heap allocations per tile once
  /// warm.
  void run_learned(core::LithoGan& model, const Sink& sink);

  double halo_nm() const { return halo_nm_; }
  double core_nm() const { return core_nm_; }
  std::size_t tiles_x() const { return tiles_x_; }
  std::size_t tiles_y() const { return tiles_y_; }
  std::size_t tiles() const { return tiles_x_ * tiles_y_; }

  /// Simulation window of tile (ix, iy): its core [ix*core, (ix+1)*core) x
  /// [...] inflated by the halo.
  geometry::Rect tile_window(std::size_t ix, std::size_t iy) const;

  /// The unique tile whose half-open core contains `center_nm`.
  std::size_t owner_tile(const geometry::Point& center_nm) const;

  /// The re-gridded (tile-scale) process config the golden tiles run.
  const litho::ProcessConfig& tile_process() const { return tile_process_; }

  const ChipStats& stats() const { return stats_; }

 private:
  struct GoldenSlot {
    std::vector<std::uint32_t> idx;            ///< layout query scratch
    std::vector<geometry::Rect> openings;      ///< tile-local mask openings
    litho::SimulationResult result;
  };

  const ChipLayout& layout_;
  ChipConfig config_;
  litho::ProcessConfig clip_process_;  ///< original clip-scale process (learned path)
  litho::ProcessConfig tile_process_;
  util::ExecContext* exec_ = nullptr;
  double halo_nm_ = 0.0;
  double core_nm_ = 0.0;
  std::size_t tiles_x_ = 0;
  std::size_t tiles_y_ = 0;
  ChipStats stats_;

  /// Golden-path state, persistent across run_golden calls so the optical
  /// precompute amortizes over the whole chip (and over repeat runs).
  std::unique_ptr<litho::Simulator> master_;            ///< serial tile simulator
  std::vector<std::unique_ptr<litho::Simulator>> clones_;  ///< one per worker
  std::vector<GoldenSlot> slots_;

  /// Learned-path warm state (see run_learned).
  struct LearnedState;
  std::unique_ptr<LearnedState> learned_;

  /// Result slots handed to the sink; grown but never shrunk so pooled
  /// contour polygons keep their capacity.
  std::vector<ContactResult> results_;

  void stitch_golden(std::size_t tile, GoldenSlot& slot, const Sink& sink);
  std::size_t collect_ring_bytes() const;
};

}  // namespace lithogan::chip

// End-to-end lithography simulation: mask rectangles -> aerial image ->
// latent/threshold -> developed contours. This is the "golden" generator
// standing in for the paper's calibrated Sentaurus runs, and — with reduced
// source sampling — the optical stage of the Ref.[12]-style baseline flow.
#pragma once

#include <memory>
#include <vector>

#include "geometry/polygon.hpp"
#include "litho/optical.hpp"
#include "litho/process.hpp"
#include "litho/resist.hpp"
#include "util/timer.hpp"

namespace lithogan::litho {

/// Output of one simulation past the optical stage. It holds no aerial
/// image: run() blurs the band intensity straight into the latent when it
/// can. Callers that read an aerial (the dataset builder, the Ref.[12]
/// flow) call aerial_image, then develop -> contours for the rest; run()
/// equals that staged replay byte for byte.
struct SimulationResult {
  FieldGrid latent;
  FieldGrid develop;                       ///< latent - threshold
  std::vector<geometry::Polygon> contours; ///< printed contours, nm coordinates
};

class Simulator {
 public:
  enum class ResistKind { kConstantThreshold, kVariableThreshold };

  explicit Simulator(const ProcessConfig& process,
                     ResistKind resist_kind = ResistKind::kVariableThreshold);

  /// Runs all stages on clip-local mask openings (nm). Stage wall-times are
  /// accumulated into timings() under "optical", "resist", "contour". On a
  /// band grid with a blur the n x n aerial is never formed: the optical
  /// model's band intensity is blurred straight into the latent
  /// (diffuse_band), one n x n interpolation instead of two.
  SimulationResult run(const std::vector<geometry::Rect>& mask_openings);

  /// Runs every clip through all stages. With a ProcessConfig::exec this is
  /// the coarse outer level of the two-level parallel model: clips fan out
  /// across the pool, each worker simulating through its own serial-inner
  /// clone of this (already calibrated) simulator, and results land in clip
  /// order. Bit-identical to calling run() per clip at any thread count.
  /// Per-worker stage timings are merged into timings() in worker order.
  std::vector<SimulationResult> run_batch(
      const std::vector<std::vector<geometry::Rect>>& clips);

  /// Individual stages, exposed for the baseline flow and benchmarks.
  FieldGrid aerial_image(const std::vector<geometry::Rect>& mask_openings);
  FieldGrid develop(const FieldGrid& aerial) const;
  std::vector<geometry::Polygon> contours(const FieldGrid& develop_grid) const;

  /// Adjusts the base threshold (binary search) until an isolated
  /// target-size contact prints at its drawn CD within `tolerance_nm`.
  /// Returns the calibrated threshold. Mirrors real model calibration.
  double calibrate_dose(double tolerance_nm = 0.25);

  const ProcessConfig& process() const { return process_; }
  /// The precomputed optical model (transfer windows). Tiling layers read
  /// its kernel_ambit_nm() to derive halo widths from the pupil support.
  const OpticalModel& optical() const { return optical_; }
  const util::StageTimings& timings() const { return timings_; }
  void reset_timings() { timings_ = {}; }

 private:
  ProcessConfig process_;
  ResistKind resist_kind_;
  OpticalModel optical_;
  std::unique_ptr<ResistModel> resist_;
  util::StageTimings timings_;

  void rebuild_resist();
};

/// Measured critical dimensions of a contour: bounding-box width/height.
struct CriticalDimension {
  double width_nm = 0.0;
  double height_nm = 0.0;
};

/// CD of the contour enclosing `at` (nm). Zeroes if no contour encloses it.
CriticalDimension measure_cd(const std::vector<geometry::Polygon>& contours,
                             const geometry::Point& at);

}  // namespace lithogan::litho

#include "litho/simulator.hpp"

#include <cmath>

#include "geometry/marching_squares.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/exec_context.hpp"
#include "util/logging.hpp"

namespace lithogan::litho {

Simulator::Simulator(const ProcessConfig& process, ResistKind resist_kind)
    : process_(process),
      resist_kind_(resist_kind),
      optical_(process.optical, process.grid, process.exec) {
  process_.validate();
  rebuild_resist();
}

void Simulator::rebuild_resist() {
  if (resist_kind_ == ResistKind::kConstantThreshold) {
    resist_ = std::make_unique<ConstantThresholdResist>(process_.resist);
  } else {
    resist_ = std::make_unique<VariableThresholdResist>(process_.resist);
  }
  resist_->set_exec_context(process_.exec);
}

FieldGrid Simulator::aerial_image(const std::vector<geometry::Rect>& mask_openings) {
  const obs::Span span("sim.aerial");
  util::Timer timer;
  const FieldGrid mask = rasterize_mask(mask_openings, process_.grid);
  FieldGrid aerial = optical_.aerial_image(mask);
  timings_.add("optical", timer.elapsed_seconds());
  return aerial;
}

FieldGrid Simulator::develop(const FieldGrid& aerial) const {
  return resist_->develop(aerial);
}

std::vector<geometry::Polygon> Simulator::contours(const FieldGrid& develop_grid) const {
  const obs::Span span("sim.contour");
  const double dx = develop_grid.pixel_nm();
  // Contours come back in grid-index space; cell centers sit at (i+0.5)*dx.
  auto raw = geometry::extract_contours(develop_grid.values, develop_grid.pixels,
                                        develop_grid.pixels, 0.0);
  std::vector<geometry::Polygon> out;
  out.reserve(raw.size());
  for (auto& poly : raw) {
    out.push_back(poly.scaled(dx, dx).translated({dx / 2.0, dx / 2.0}));
  }
  static obs::Counter& extracted =
      obs::Registry::global().counter("sim.contours_extracted");
  extracted.add(out.size());
  return out;
}

SimulationResult Simulator::run(const std::vector<geometry::Rect>& mask_openings) {
  // Band-first: the band blur reads only the aerial's m x m band samples, so
  // with a band and a blur the band intensity goes straight into the n x n
  // latent and no n x n aerial is formed. diffuse_band equals the staged
  // aerial_image -> develop bit for bit (see OpticalModel::aerial_image).
  const std::size_t m = optical_.imaging_pixels();
  const double sigma = process_.resist.diffusion_length_nm;
  const bool band_first = m < process_.grid.pixels && sigma > 0.0;
  std::vector<double> samples;
  FieldGrid aerial;
  if (band_first) {
    const obs::Span span("sim.aerial");
    util::Timer timer;
    samples = optical_.band_intensity(rasterize_mask(mask_openings, process_.grid));
    timings_.add("optical", timer.elapsed_seconds());
  } else {
    aerial = aerial_image(mask_openings);
  }

  SimulationResult result;
  util::Timer resist_timer;
  {
    const obs::Span span("sim.resist");
    result.latent = band_first
                        ? diffuse_band(samples, m, process_.grid, sigma, process_.exec)
                        : resist_->latent_image(aerial);
    result.develop = resist_->develop_latent(result.latent);
  }
  timings_.add("resist", resist_timer.elapsed_seconds());

  util::Timer contour_timer;
  result.contours = contours(result.develop);
  timings_.add("contour", contour_timer.elapsed_seconds());
  return result;
}

std::vector<SimulationResult> Simulator::run_batch(
    const std::vector<std::vector<geometry::Rect>>& clips) {
  std::vector<SimulationResult> results(clips.size());
  util::ExecContext* exec = process_.exec;
  if (exec == nullptr || clips.size() <= 1) {
    for (std::size_t i = 0; i < clips.size(); ++i) {
      const obs::Span span("sim.clip");
      results[i] = run(clips[i]);
    }
    return results;
  }

  // Each worker simulates through its own clone so mutable per-run state
  // (resist model, stage timers) is never shared. Clones inherit the
  // calibrated process but run their inner kernels serially — with clips
  // fanned out, every core is already busy and inner fan-out would only
  // oversubscribe. Clones are built lazily by the worker that first needs
  // one, so a short batch does not pay threads() optical precomputes.
  ProcessConfig serial_process = process_;
  serial_process.exec = nullptr;
  std::vector<std::unique_ptr<Simulator>> clones(exec->threads());
  exec->pool().parallel_for(
      0, clips.size(), 1,
      [&](std::size_t b, std::size_t e, std::size_t worker) {
        auto& sim = clones[worker];
        if (!sim) sim = std::make_unique<Simulator>(serial_process, resist_kind_);
        for (std::size_t i = b; i < e; ++i) {
          const obs::Span span("sim.clip");
          results[i] = sim->run(clips[i]);
        }
      });
  for (const auto& sim : clones) {
    if (sim) timings_.merge(sim->timings());
  }
  return results;
}

double Simulator::calibrate_dose(double tolerance_nm) {
  const double center = process_.grid.extent_nm / 2.0;
  const std::vector<geometry::Rect> isolated = {geometry::Rect::from_center(
      {center, center}, process_.contact_size_nm, process_.contact_size_nm)};

  // The blur does not depend on the threshold: form the latent once and
  // develop it at each bisection step.
  const FieldGrid latent = resist_->latent_image(aerial_image(isolated));
  const double target = process_.contact_size_nm;

  // Printed CD grows monotonically as the threshold drops (more of the
  // intensity bump clears it), so bisection is safe. Track the threshold
  // whose printed CD came closest to the target in case the tolerance is
  // never met exactly (contour extraction quantizes the CD slightly).
  double lo = 0.02;
  double hi = 0.9;
  double best_threshold = (lo + hi) / 2.0;
  double best_error = 1e300;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = (lo + hi) / 2.0;
    process_.resist.threshold = mid;
    rebuild_resist();
    const auto cs = contours(resist_->develop_latent(latent));
    const auto cd = measure_cd(cs, {center, center});
    const double printed = (cd.width_nm + cd.height_nm) / 2.0;
    if (printed > 0.0 && std::abs(printed - target) < best_error) {
      best_error = std::abs(printed - target);
      best_threshold = mid;
    }
    if (printed <= 0.0 || printed < target) {
      hi = mid;  // too small (or nothing printed): lower the threshold
    } else {
      lo = mid;
    }
    if (best_error <= tolerance_nm) break;
  }
  process_.resist.threshold = best_threshold;
  rebuild_resist();
  util::log_info() << "calibrated " << process_.name
                   << " threshold=" << process_.resist.threshold;
  return process_.resist.threshold;
}

CriticalDimension measure_cd(const std::vector<geometry::Polygon>& contours,
                             const geometry::Point& at) {
  const geometry::Polygon c = geometry::contour_at(contours, at);
  if (c.empty()) return {};
  const geometry::Rect box = c.bounding_box();
  return {box.width(), box.height()};
}

}  // namespace lithogan::litho

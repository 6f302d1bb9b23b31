#include "litho/source.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace lithogan::litho {

std::vector<SourcePoint> sample_source(const OpticalConfig& config) {
  LITHOGAN_REQUIRE(config.source_rings >= 1 && config.source_points_per_ring >= 1,
                   "source sampling must be non-empty");
  std::vector<SourcePoint> points;
  points.reserve(config.source_rings * config.source_points_per_ring);

  for (std::size_t r = 0; r < config.source_rings; ++r) {
    // Ring radii placed at the midpoints of equal-width annular strips.
    const double frac = (static_cast<double>(r) + 0.5) / static_cast<double>(config.source_rings);
    const double radius =
        config.sigma_inner + frac * (config.sigma_outer - config.sigma_inner);
    // Stagger successive rings for better azimuthal coverage.
    const double phase_offset =
        std::numbers::pi * static_cast<double>(r) / static_cast<double>(config.source_points_per_ring);

    for (std::size_t k = 0; k < config.source_points_per_ring; ++k) {
      double theta = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(config.source_points_per_ring) +
                     phase_offset;
      if (config.source_shape == SourceShape::kQuadrupole) {
        // Collapse the azimuth into four poles on the diagonals, each a
        // 45-degree arc (cross-quad).
        const double pole = std::floor(theta / (std::numbers::pi / 2.0));
        const double local = theta - pole * (std::numbers::pi / 2.0);  // [0, pi/2)
        theta = pole * (std::numbers::pi / 2.0) + std::numbers::pi / 4.0 +
                (local - std::numbers::pi / 4.0) * 0.5;
      }
      points.push_back(SourcePoint{radius * std::cos(theta), radius * std::sin(theta), 0.0});
    }
  }

  // Equal weights: rings are equal-area strips only approximately, but the
  // aerial image is normalized downstream so only relative weights matter.
  const double w = 1.0 / static_cast<double>(points.size());
  for (auto& p : points) p.weight = w;
  return points;
}

}  // namespace lithogan::litho

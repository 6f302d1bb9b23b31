#include "math/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lithogan::math {

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double ss = 0.0;
  for (const double v : values) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(values.size() - 1));
}

double percentile(std::span<const double> values, double p) {
  LITHOGAN_REQUIRE(!values.empty(), "percentile of empty sample");
  LITHOGAN_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  s.count = values.size();
  s.mean = mean(values);
  s.stddev = stddev(values);
  s.min = *std::min_element(values.begin(), values.end());
  s.max = *std::max_element(values.begin(), values.end());
  s.median = percentile(values, 50.0);
  return s;
}

}  // namespace lithogan::math

// Descriptive statistics used by the evaluation and benchmark reports.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace lithogan::math {

/// Summary of a sample: count, mean, population/sample stddev, extrema.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  // sample standard deviation (n-1); 0 for n < 2
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Computes the summary of `values`. Returns a zeroed Summary when empty.
Summary summarize(std::span<const double> values);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
double stddev(std::span<const double> values);

/// p-th percentile (0..100) by linear interpolation on the sorted sample.
double percentile(std::span<const double> values, double p);

}  // namespace lithogan::math

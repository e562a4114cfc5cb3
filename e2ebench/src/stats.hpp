#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace e2e {

/// The q-th percentile (0 ≤ q ≤ 100) of `values`, interpolating linearly
/// between the two nearest order statistics (numpy's default rule). Throws
/// on an empty sample: a metric with no samples is a benchmark bug, never
/// a zero.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(values.begin(), values.end());
  double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// Number of samples strictly above the q-th percentile — the guide for
/// reporting a tail percentile is at least ten of them.
inline std::size_t samples_beyond(const std::vector<double>& values,
                                  double q) {
  double cut = percentile(values, q);
  return static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(), [cut](double v) { return v > cut; }));
}

inline double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

/// Geometric mean of strictly positive values.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no samples");
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace e2e

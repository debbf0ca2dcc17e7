// Order statistics over measured samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace perfbench {

/// q-quantile by linear interpolation between closest ranks (q in [0, 1]);
/// 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(position));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

}  // namespace perfbench

// Confidence intervals.
//
// Fig. 6 plots per-group average affinity with 95% confidence intervals.
// We provide both the normal-approximation interval (what the paper's
// error bars almost certainly are) and a percentile bootstrap for small
// groups where normality is doubtful.
#pragma once

#include <span>

#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace appstore::stats {

struct Interval {
  double lower = 0.0;
  double upper = 0.0;
  [[nodiscard]] double width() const noexcept { return upper - lower; }
  [[nodiscard]] bool contains(double v) const noexcept { return v >= lower && v <= upper; }
};

/// mean ± z * stderr; z defaults to 1.96 (95%).
[[nodiscard]] Interval normal_ci(std::span<const double> sample, double z = 1.96);

/// Options for bootstrap_mean_ci (the Options-struct API).
struct BootstrapOptions {
  std::size_t resamples = 1000;
  double confidence = 0.95;
  /// Worker threads for the resampling loop; 0 = hardware_concurrency.
  /// Every replicate draws from its own derived RNG stream
  /// (util::rng::derive), so the interval is bit-identical at every thread
  /// count for a fixed incoming rng state.
  std::size_t threads = 0;
  /// Optional metrics sink for the par_* families.
  obs::Registry* metrics = nullptr;
};

/// Percentile bootstrap CI for the mean. Consumes exactly one draw from
/// `rng` (the base seed for the per-replicate derived streams).
[[nodiscard]] Interval bootstrap_mean_ci(std::span<const double> sample, util::Rng& rng,
                                         const BootstrapOptions& options = {});

}  // namespace appstore::stats

#include "stats/bootstrap.hpp"

#include <algorithm>
#include <vector>

#include "par/parallel.hpp"
#include "stats/descriptive.hpp"

namespace appstore::stats {

Interval normal_ci(std::span<const double> sample, double z) {
  const double m = mean(sample);
  const double se = stderr_mean(sample);
  return Interval{m - z * se, m + z * se};
}

Interval bootstrap_mean_ci(std::span<const double> sample, util::Rng& rng,
                           const BootstrapOptions& options) {
  if (sample.empty() || options.resamples == 0) return Interval{};
  const std::uint64_t base = rng();
  const par::Options par_options{.threads = options.threads,
                                 .metrics = options.metrics};
  std::vector<double> means = par::parallel_map<double>(
      options.resamples, par_options, [&](std::uint64_t replicate) {
        util::Rng replicate_rng = util::rng::derive(base, replicate);
        double total = 0.0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
          total += sample[static_cast<std::size_t>(replicate_rng.below(sample.size()))];
        }
        return total / static_cast<double>(sample.size());
      });
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - options.confidence) / 2.0;
  return Interval{quantile_sorted(means, alpha), quantile_sorted(means, 1.0 - alpha)};
}

}  // namespace appstore::stats

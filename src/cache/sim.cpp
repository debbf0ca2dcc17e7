#include "cache/sim.hpp"

#include <numeric>

#include "par/parallel.hpp"

namespace appstore::cache {

namespace {

void warm_policy(CachePolicy& policy, std::size_t warm_top_n) {
  if (warm_top_n == 0) return;
  std::vector<std::uint32_t> top(warm_top_n);
  std::iota(top.begin(), top.end(), 0U);
  policy.warm(top);
}

void record_metrics(const CachePolicy& policy, const SimResult& result,
                    const SimOptions& options) {
  if (options.metrics == nullptr) return;
  obs::Registry& registry = *options.metrics;
  const std::string_view label = policy.name();
  registry.counter("cache_requests_total", label).inc(result.requests);
  registry.counter("cache_hits_total", label).inc(result.hits);
  registry.counter("cache_misses_total", label).inc(result.requests - result.hits);
  registry.counter("cache_evictions_total", label).inc(result.evictions);
  registry.gauge("cache_hit_ratio", label).set(result.hit_ratio());
}

}  // namespace

SimResult simulate(CachePolicy& policy, std::span<const std::uint32_t> apps,
                   const SimOptions& options) {
  warm_policy(policy, options.warm_top_n);
  const std::uint64_t evictions_before = policy.evictions();
  SimResult result;
  for (const auto app : apps) {
    ++result.requests;
    if (policy.access(app)) ++result.hits;
  }
  result.evictions = policy.evictions() - evictions_before;
  record_metrics(policy, result, options);
  return result;
}

std::vector<SweepPoint> sweep_cache_sizes(PolicyKind kind, std::span<const std::size_t> sizes,
                                          std::span<const std::uint32_t> request_apps,
                                          std::span<const std::uint32_t> app_category,
                                          std::uint64_t seed, obs::Registry* metrics,
                                          std::size_t threads) {
  const par::Options par_options{.threads = threads, .grain = 1, .metrics = metrics};
  return par::parallel_map<SweepPoint>(sizes.size(), par_options, [&](std::uint64_t i) {
    const auto size = sizes[static_cast<std::size_t>(i)];
    const auto policy = make_policy(kind, size, app_category, seed);
    const SimResult result =
        simulate(*policy, request_apps, SimOptions{.warm_top_n = size, .metrics = metrics});
    return SweepPoint{size, result.hit_ratio()};
  });
}

}  // namespace appstore::cache

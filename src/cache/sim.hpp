// Cache simulation driver (§7, Fig. 19).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cache/policy.hpp"
#include "events/event_log.hpp"
#include "obs/registry.hpp"

namespace appstore::cache {

struct SimResult {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_ratio() const noexcept {
    return requests == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(requests);
  }
};

/// Options for simulate() (the Options-struct API).
struct SimOptions {
  /// If > 0, the cache is pre-populated with apps 0..warm_top_n-1 (the
  /// globally most popular apps, as in the paper's setup: "the cache was
  /// initialized with the respective number of most popular apps").
  std::size_t warm_top_n = 0;
  /// Optional metrics sink: records cache_requests_total / cache_hits_total
  /// / cache_misses_total / cache_evictions_total, labeled by policy name.
  obs::Registry* metrics = nullptr;
};

/// Runs every requested app through the policy. The primary form: only the
/// app id matters to a cache, so the request stream is just a column.
[[nodiscard]] SimResult simulate(CachePolicy& policy, std::span<const std::uint32_t> apps,
                                 const SimOptions& options);

/// View adapter: simulates a columnar request stream (models::
/// generate_stream_log).
[[nodiscard]] inline SimResult simulate(CachePolicy& policy, const events::EventLog& requests,
                                        const SimOptions& options) {
  return simulate(policy, requests.app(), options);
}

/// Hit ratio of one policy kind at several cache sizes over the same stream.
struct SweepPoint {
  std::size_t cache_size = 0;
  double hit_ratio = 0.0;
};

/// One independent simulation task per cache size (each size owns a private
/// policy instance over the shared read-only stream), so the sweep
/// parallelizes across sizes; results are identical at every thread count.
/// `app_category` is borrowed for the sweep's duration (required for
/// kClusterLru, ignored otherwise). `threads`: 0 = hardware_concurrency.
[[nodiscard]] std::vector<SweepPoint> sweep_cache_sizes(
    PolicyKind kind, std::span<const std::size_t> sizes,
    std::span<const std::uint32_t> request_apps,
    std::span<const std::uint32_t> app_category = {}, std::uint64_t seed = 0,
    obs::Registry* metrics = nullptr, std::size_t threads = 0);

/// View adapter over a columnar request stream.
[[nodiscard]] inline std::vector<SweepPoint> sweep_cache_sizes(
    PolicyKind kind, std::span<const std::size_t> sizes, const events::EventLog& requests,
    std::span<const std::uint32_t> app_category = {}, std::uint64_t seed = 0,
    obs::Registry* metrics = nullptr, std::size_t threads = 0) {
  return sweep_cache_sizes(kind, sizes, requests.app(), app_category, seed, metrics, threads);
}

}  // namespace appstore::cache

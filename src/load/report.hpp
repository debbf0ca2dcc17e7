// JSON reporting for load-harness runs (results/BENCH_serving.json).
//
// A RunReport serializes to the shape documented in docs/serving.md; a
// ServingComparison wraps bench_serving's two runs of the same worker-pool
// server — response cache off, then on — with the derived speedup and the
// service's cache counters. Values round-trip
// through crawlersim::parse_json (load_test covers this).
#pragma once

#include <cstdint>
#include <string>

#include "crawler/json.hpp"
#include "load/harness.hpp"

namespace appstore::load {

/// Side-by-side result of one server with and without its response cache
/// under an identical schedule: the speedup is the cache layer's alone.
struct ServingComparison {
  RunReport baseline;    ///< worker pool, ServicePolicy::cache_responses = false
  RunReport cached;      ///< worker pool, ServicePolicy::cache_responses = true
  double speedup = 0.0;  ///< cached.throughput_rps / baseline.throughput_rps
  std::uint64_t cache_hits = 0;    ///< service_response_cache_total{hit}
  std::uint64_t cache_misses = 0;  ///< service_response_cache_total{miss}
  std::string notes;
};

[[nodiscard]] crawlersim::Json to_json(const Totals& totals);
[[nodiscard]] crawlersim::Json to_json(const EndpointLatency& latency);
[[nodiscard]] crawlersim::Json to_json(const RunReport& report);
[[nodiscard]] crawlersim::Json to_json(const ServingComparison& comparison);

/// Writes `value.dump()` to `path` (creating parent directories is the
/// caller's job); false with a warning log on I/O failure.
bool write_json_file(const crawlersim::Json& value, const std::string& path);

}  // namespace appstore::load

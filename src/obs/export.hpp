// Exporters: render a Registry (or a pre-taken Snapshot) as text or JSON.
//
// Text is the human/prometheus-style form served by `/api/v1/metrics?fmt=text`:
//
//   # HELP http_requests_total Requests by status class
//   # TYPE http_requests_total counter
//   http_requests_total{label="2xx"} 1042
//
// JSON is the machine form (default for `/api/v1/metrics` and the bench
// `--metrics-out` dumps). It is deliberately self-contained — obs sits
// below net/crawler in the dependency order, so it writes JSON by hand;
// crawlersim::parse_json round-trips it (covered by tests/obs_test.cpp):
//
//   {"counters":[{"name":"...","label":"...","value":1042}],
//    "gauges":[{"name":"...","label":"...","value":3.5}],
//    "histograms":[{"name":"...","label":"...","count":9,"sum":1.2,
//                   "min":...,"max":...,"p50":...,"p90":...,"p99":...}]}
#pragma once

#include <string>

#include "obs/registry.hpp"

namespace appstore::obs {

[[nodiscard]] std::string to_text(const Snapshot& snapshot, const Registry* help_from = nullptr);
[[nodiscard]] std::string to_text(const Registry& registry);

[[nodiscard]] std::string to_json(const Snapshot& snapshot);
[[nodiscard]] std::string to_json(const Registry& registry);

/// Writes to_json(registry) to `path`; false (with a warning log) on I/O
/// failure. Used by the bench harness's --metrics-out flag.
bool write_json_file(const Registry& registry, const std::string& path);

}  // namespace appstore::obs

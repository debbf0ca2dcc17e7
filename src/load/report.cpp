#include "load/report.hpp"

#include <fstream>

#include "util/logging.hpp"

namespace appstore::load {

using crawlersim::Json;
using crawlersim::JsonArray;
using crawlersim::json_object;

Json to_json(const Totals& totals) {
  return json_object({{"issued", totals.issued},
                      {"ok", totals.ok},
                      {"http_4xx", totals.http_4xx},
                      {"http_5xx", totals.http_5xx},
                      {"shed", totals.shed},
                      {"transport_errors", totals.transport_errors},
                      {"shed_breakdown",
                       json_object({{"accept", totals.shed_accept},
                                    {"queue", totals.shed_queue},
                                    {"admission", totals.shed_admission}})}});
}

Json to_json(const EndpointLatency& latency) {
  return json_object({{"endpoint", latency.endpoint},
                      {"count", latency.count},
                      {"mean_seconds", latency.mean},
                      {"p50_seconds", latency.p50},
                      {"p90_seconds", latency.p90},
                      {"p99_seconds", latency.p99}});
}

Json to_json(const RunReport& report) {
  const ScheduleOptions& schedule = report.schedule;
  JsonArray latency;
  latency.reserve(report.latency.size());
  for (const EndpointLatency& entry : report.latency) latency.push_back(to_json(entry));
  return json_object(
      {{"schedule",
        json_object({{"seed", schedule.seed},
                     {"clients", static_cast<std::uint64_t>(schedule.clients)},
                     {"requests_per_client",
                      static_cast<std::uint64_t>(schedule.requests_per_client)},
                     {"open_loop_rate_hz", schedule.open_loop_rate_hz}})},
       {"over_sockets", report.over_sockets},
       {"totals", to_json(report.totals)},
       {"wall_seconds", report.wall_seconds},
       {"throughput_rps", report.throughput_rps},
       {"latency", Json(std::move(latency))}});
}

Json to_json(const ServingComparison& comparison) {
  return json_object({{"worker_pool_without_cache", to_json(comparison.baseline)},
                      {"worker_pool_with_cache", to_json(comparison.cached)},
                      {"speedup", comparison.speedup},
                      {"response_cache_hits", comparison.cache_hits},
                      {"response_cache_misses", comparison.cache_misses},
                      {"notes", comparison.notes}});
}

bool write_json_file(const Json& value, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    util::log_warn("load", "cannot open {} for writing", path);
    return false;
  }
  out << value.dump() << '\n';
  return static_cast<bool>(out);
}

}  // namespace appstore::load

#include "workload_common.hpp"

#include "host.hpp"
#include "stats.hpp"

namespace perfbench {

appstore::synth::GeneratorConfig store_config(std::uint64_t seed,
                                              appstore::obs::Registry* metrics) {
  appstore::synth::GeneratorConfig config;
  config.app_scale = 0.01;
  config.download_scale = 5e-5;
  config.comments = true;
  config.seed = seed;
  config.threads = nproc();
  config.metrics = metrics;
  return config;
}

appstore::crawlersim::ServicePolicy lifted_policy() {
  appstore::crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e12;
  policy.burst = 1e12;
  return policy;
}

std::vector<std::string> query_check_targets() {
  std::vector<std::string> targets;
  for (const char* kind : {"top_k_downloads&k=10", "pareto_share", "category_affinity&depths=1,2",
                           "rank_download_curve&points=50"}) {
    for (const char* filter :
         {"", "&filter=user==3", "&filter=category==1", "&filter=day>=10+and+day<=40"}) {
      targets.push_back(std::string("/api/v1/query?kind=") + kind + filter);
    }
  }
  return targets;
}

void put_interval_cpu(RunResult& result, const std::vector<double>& cpu_at_boundary,
                      bool trace) {
  std::vector<double> untraced;
  std::vector<double> traced;
  for (std::size_t k = 1; k < cpu_at_boundary.size(); ++k) {
    (trace && k % 2 == 1 ? traced : untraced)
        .push_back(cpu_at_boundary[k] - cpu_at_boundary[k - 1]);
  }
  result.end_to_end["work_cpu_s"] = Metric{median(untraced), "s", untraced.size()};
  if (trace) {
    result.per_layer["trace.overhead_ratio"] =
        Metric{median(traced) / median(untraced), "ratio", traced.size() + untraced.size()};
  }
}

namespace {

double ratio(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

void put_service_layers(std::map<std::string, Metric>& layer, const DeltaSet& delta,
                        std::size_t shards) {
  for (const char* endpoint : {"meta", "apps", "app", "comments", "apk", "query"}) {
    layer[std::string("service.") + endpoint + "_us"] =
        Metric{delta.mean("service_request_seconds", endpoint) * 1e6, "us",
               delta.count("service_request_seconds", endpoint)};
  }
  const auto hits = delta.counter("service_response_cache_total", "hit");
  const auto misses = delta.counter("service_response_cache_total", "miss");
  layer["service.cache_hits"] = Metric{static_cast<double>(hits), "count", 1};
  layer["service.cache_misses"] = Metric{static_cast<double>(misses), "count", 1};
  layer["service.cache_hit_ratio"] = Metric{
      ratio(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio", hits + misses};
  for (const char* kind :
       {"top_k_downloads", "pareto_share", "category_affinity", "rank_download_curve"}) {
    layer[std::string("query.") + kind + "_us"] =
        Metric{delta.mean("query_latency_seconds", kind) * 1e6 * static_cast<double>(shards), "us",
               delta.count("query_latency_seconds", kind)};
  }
  const auto index_scans = delta.counter("query_plan_total", "index_scan");
  const auto column_scans = delta.counter("query_plan_total", "column_scan");
  layer["query.index_scan_share"] =
      Metric{ratio(static_cast<double>(index_scans), static_cast<double>(index_scans + column_scans)),
             "ratio", index_scans + column_scans};
}

void put_net_layers(std::map<std::string, Metric>& layer, const DeltaSet& delta,
                    std::uint64_t requests) {
  layer["net.queue_wait_us"] = Metric{delta.mean("server_queue_wait_seconds") * 1e6, "us",
                                      delta.count("server_queue_wait_seconds")};
  layer["net.http_us"] = Metric{delta.mean("http_request_seconds", "2xx") * 1e6, "us",
                                delta.count("http_request_seconds", "2xx")};
  layer["net.accepted"] =
      Metric{static_cast<double>(delta.counter("http_accepted_total")), "count", 1};
  const std::uint64_t sheds = delta.counter("server_shed_total", "accept") +
                              delta.counter("server_shed_total", "queue") +
                              delta.counter("server_shed_total", "admission") +
                              delta.counter("admission_sheds_total");
  layer["net.shed_share"] =
      Metric{ratio(static_cast<double>(sheds), static_cast<double>(requests)), "ratio", requests};
}

void SetupTimes::start() {
  start_ns_ = Tracer::now_ns();
  start_cpu_s_ = process_cpu_s();
}

void SetupTimes::stop() {
  cpu_s_.push_back(process_cpu_s() - start_cpu_s_);
  wall_s_.push_back(static_cast<double>(Tracer::now_ns() - start_ns_) / 1e9);
}

void SetupTimes::report(RunResult& result) const {
  result.end_to_end["setup_s"] = Metric{median(cpu_s_), "s", cpu_s_.size()};
  result.detail["setup_wall_s"] = Metric{median(wall_s_), "s", wall_s_.size()};
}

void RunResult::check(bool ok, std::string what) {
  if (!ok) failures.push_back(std::move(what));
}

std::uint64_t DeltaSet::counter(std::string_view name, std::string_view label) const {
  std::uint64_t total = 0;
  for (const Pair& pair : pairs) {
    const auto* a = pair.after.find_counter(name, label);
    const auto* b = pair.before.find_counter(name, label);
    total += (a != nullptr ? a->value : 0) - (b != nullptr ? b->value : 0);
  }
  return total;
}

std::uint64_t DeltaSet::count(std::string_view name, std::string_view label) const {
  std::uint64_t total = 0;
  for (const Pair& pair : pairs) {
    const auto* a = pair.after.find_histogram(name, label);
    const auto* b = pair.before.find_histogram(name, label);
    total += (a != nullptr ? a->count : 0) - (b != nullptr ? b->count : 0);
  }
  return total;
}

double DeltaSet::sum(std::string_view name, std::string_view label) const {
  double total = 0.0;
  for (const Pair& pair : pairs) {
    const auto* a = pair.after.find_histogram(name, label);
    const auto* b = pair.before.find_histogram(name, label);
    total += (a != nullptr ? a->sum : 0.0) - (b != nullptr ? b->sum : 0.0);
  }
  return total;
}

void put_latency(std::map<std::string, Metric>& out, const std::string& prefix,
                 const std::vector<double>& values_ms) {
  const auto n = static_cast<std::uint64_t>(values_ms.size());
  out[prefix + "_p50_ms"] = Metric{quantile(values_ms, 0.50), "ms", n};
  out[prefix + "_p90_ms"] = Metric{quantile(values_ms, 0.90), "ms", n};
  out[prefix + "_p99_ms"] = Metric{quantile(values_ms, 0.99), "ms", n};
}

WindowedLatency windowed(const std::vector<std::vector<double>>& by_window) {
  WindowedLatency out;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (const auto& window : by_window) {
    if (window.empty()) continue;
    out.samples += window.size();
    p50.push_back(quantile(window, 0.50));
    p90.push_back(quantile(window, 0.90));
    p99.push_back(quantile(window, 0.99));
  }
  out.p50_ms = median(p50);
  out.p90_ms = median(p90);
  out.p99_ms = median(p99);
  return out;
}

void account(RunResult& result, const std::vector<std::vector<Sample>>& samples) {
  for (const auto& client : samples) {
    for (const Sample& sample : client) {
      ++result.attempted;
      if (!sample.ok) ++result.failed;
    }
  }
}

double lateness_p99_ms(const std::vector<std::vector<Sample>>& samples) {
  std::vector<double> late;
  for (const auto& client : samples) {
    for (const Sample& sample : client) {
      late.push_back(static_cast<double>(sample.lateness_ns()) / 1e6);
    }
  }
  return quantile(std::move(late), 0.99);
}

double span_median(const std::vector<Span>& spans, std::string_view name, double scale) {
  return median(durations_ns(spans, name)) * scale;
}

double self_median(const std::vector<Span>& spans, std::string_view name, double scale) {
  return median(self_ns(spans, name)) * scale;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace perfbench

// Shared result shape and measurement helpers of the three workloads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crawler/service.hpp"
#include "loadgen.hpp"
#include "obs/registry.hpp"
#include "schedule.hpp"
#include "synth/profile.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value (0 = n/a)
};

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
};

struct RunResult {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Fixed settings of this workload (thread counts, scales, policies).
  std::vector<std::pair<std::string, std::string>> settings;
  /// Further measured figures printed for the reader (not gated).
  std::map<std::string, Metric> detail;

  void check(bool ok, std::string what);
  void setting(std::string key, std::string value) {
    settings.emplace_back(std::move(key), std::move(value));
  }
};

/// Every workload sets up this many times per run and keeps the last.
constexpr int kSetupRepeats = 7;

/// Times the repeated set-up. `setup_s` is the median process CPU seconds
/// (user + system, all threads) of one set-up, which main() then scales to
/// the reference host speed like `work_cpu_s`: on a shared host the wall
/// time of a set-up this short follows the host's contention more than the
/// program. The median wall time is printed as the ungated `setup_wall_s`.
class SetupTimes {
 public:
  void start();
  void stop();
  void report(RunResult& result) const;

 private:
  std::int64_t start_ns_ = 0;
  double start_cpu_s_ = 0.0;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

/// The store every workload generates: the Anzhi profile with comments, at
/// a scale (~600 apps, ~140k downloads) a run can crawl and serve in seconds.
[[nodiscard]] appstore::synth::GeneratorConfig store_config(std::uint64_t seed,
                                                            appstore::obs::Registry* metrics);

/// Service policy with the token buckets lifted: the crawler's 429 backoff
/// sleeps (and client throttling) would otherwise be measured in place of
/// the program.
[[nodiscard]] appstore::crawlersim::ServicePolicy lifted_policy();

/// The fixed query check set: the four aggregate kinds under no filter, a
/// selective filter, a category filter and a day range.
[[nodiscard]] std::vector<std::string> query_check_targets();

[[nodiscard]] RunResult run_crawl_study(const RunArgs& args);
[[nodiscard]] RunResult run_serve_ingest(const RunArgs& args);
[[nodiscard]] RunResult run_fed_scatter(const RunArgs& args);

/// Before/after snapshots of one or more registries (one per shard), for
/// deltas of the families the program already exports, summed over the
/// registries.
struct DeltaSet {
  struct Pair {
    appstore::obs::Snapshot before;
    appstore::obs::Snapshot after;
  };
  std::vector<Pair> pairs;

  [[nodiscard]] std::uint64_t counter(std::string_view name, std::string_view label = {}) const;
  [[nodiscard]] std::uint64_t count(std::string_view name, std::string_view label = {}) const;
  [[nodiscard]] double sum(std::string_view name, std::string_view label = {}) const;
  /// Mean of the observations made between the snapshots (0 if none).
  [[nodiscard]] double mean(std::string_view name, std::string_view label = {}) const {
    const auto n = count(name, label);
    return n == 0 ? 0.0 : sum(name, label) / static_cast<double>(n);
  }
};

/// From process CPU seconds read at successive interval boundaries of an
/// open loop, records `work_cpu_s`, the median CPU seconds of one interval.
/// A traced run traces every other interval (odd ones); it then also
/// records `trace.overhead_ratio`, the median traced interval over the
/// median untraced one.
void put_interval_cpu(RunResult& result, const std::vector<double>& cpu_at_boundary,
                      bool trace);

/// Per-layer service.* and query.* metrics from service registry deltas;
/// `shards` turns the per-shard kernel mean into the cost of one scattered
/// query (1 for a single store).
void put_service_layers(std::map<std::string, Metric>& layer, const DeltaSet& delta,
                        std::size_t shards);

/// Per-layer net.* metrics from HTTP server registry deltas.
void put_net_layers(std::map<std::string, Metric>& layer, const DeltaSet& delta,
                    std::uint64_t requests);

/// Latencies (ms) of the samples selected by `keep(client, index)`.
template <typename Keep>
[[nodiscard]] std::vector<double> latencies_ms(const std::vector<std::vector<Sample>>& samples,
                                               Keep keep) {
  std::vector<double> out;
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (std::size_t i = 0; i < samples[c].size(); ++i) {
      if (keep(c, i)) out.push_back(static_cast<double>(samples[c][i].latency_ns()) / 1e6);
    }
  }
  return out;
}

/// p50, p90 and p99 of `values` into `out` as "<prefix>_p50_ms", ...
void put_latency(std::map<std::string, Metric>& out, const std::string& prefix,
                 const std::vector<double>& values_ms);

/// Like put_latency, but each percentile is the median of that percentile
/// over `windows` equal windows of due time in [0, span_ns): one stall on a
/// shared host then moves one window's tail, not the run's.
template <typename Keep>
void put_windowed_latency(std::map<std::string, Metric>& out, const std::string& prefix,
                          const std::vector<std::vector<Sample>>& samples, Keep keep,
                          std::size_t windows, std::int64_t span_ns);

/// Median over windows of the q-quantiles (q = 0.5, 0.9, 0.99) of
/// latencies bucketed by window.
struct WindowedLatency {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t samples = 0;
};
[[nodiscard]] WindowedLatency windowed(const std::vector<std::vector<double>>& by_window);

template <typename Keep>
void put_windowed_latency(std::map<std::string, Metric>& out, const std::string& prefix,
                          const std::vector<std::vector<Sample>>& samples, Keep keep,
                          std::size_t windows, std::int64_t span_ns) {
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t c = 0; c < samples.size(); ++c) {
    for (std::size_t i = 0; i < samples[c].size(); ++i) {
      if (!keep(c, i)) continue;
      const Sample& sample = samples[c][i];
      const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, sample.due_ns)) *
                     windows / static_cast<std::size_t>(span_ns);
      by_window[std::min(w, windows - 1)].push_back(static_cast<double>(sample.latency_ns()) / 1e6);
    }
  }
  const WindowedLatency latency = windowed(by_window);
  out[prefix + "_p50_ms"] = Metric{latency.p50_ms, "ms", latency.samples};
  out[prefix + "_p90_ms"] = Metric{latency.p90_ms, "ms", latency.samples};
  out[prefix + "_p99_ms"] = Metric{latency.p99_ms, "ms", latency.samples};
}

/// Drive-level accounting: every sample is attempted; !ok ones failed.
void account(RunResult& result, const std::vector<std::vector<Sample>>& samples);

/// Generator lateness p99 (ms) over every sample.
[[nodiscard]] double lateness_p99_ms(const std::vector<std::vector<Sample>>& samples);

/// Median duration / self time of named spans, in the given unit scale
/// (1e-9 for seconds, 1e-3 for microseconds...). 0 when none recorded.
[[nodiscard]] double span_median(const std::vector<Span>& spans, std::string_view name,
                                 double scale);
[[nodiscard]] double self_median(const std::vector<Span>& spans, std::string_view name,
                                 double scale);

/// Stable digest (FNV-1a) of a byte range, chained with `seed`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t seed = 1469598103934665603ULL);

}  // namespace perfbench

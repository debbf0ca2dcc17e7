// perfbench: one command for the whole system. Runs one workload
// (crawl_study, serve_ingest or fed_scatter) with its seed, prints the
// host block, the fixed settings, every metric with its unit and sample
// count, the correctness checks, and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
//   perfbench --workload serve_ingest --seed 7 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "host.hpp"
#include "stats.hpp"
#include "workload_common.hpp"

namespace {

using namespace perfbench;

struct Declared {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"work_cpu_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics (BENCHMARK.json). A workload that does no work in a
/// layer reports that layer's metrics as 0, which is the measured value.
constexpr Declared kPerLayer[] = {
    {"synth.generate_s", "s"},
    {"market.open_s", "s"},
    {"market.ingest_us", "us"},
    {"market.ingest_wait_us", "us"},
    {"market.checkpoint_ms", "ms"},
    {"market.checkpoint_max_ms", "ms"},
    {"market.write_bytes_per_row", "B/row"},
    {"events.wal_commits", "count"},
    {"events.rows_appended", "count"},
    {"net.queue_wait_us", "us"},
    {"net.http_us", "us"},
    {"net.accepted", "count"},
    {"net.shed_share", "ratio"},
    {"service.meta_us", "us"},
    {"service.apps_us", "us"},
    {"service.app_us", "us"},
    {"service.comments_us", "us"},
    {"service.apk_us", "us"},
    {"service.query_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"query.top_k_downloads_us", "us"},
    {"query.pareto_share_us", "us"},
    {"query.category_affinity_us", "us"},
    {"query.rank_download_curve_us", "us"},
    {"query.index_scan_share", "ratio"},
    {"crawler.crawl_day_s", "s"},
    {"crawler.requests", "count"},
    {"crawler.retries", "count"},
    {"crawler.apk_bytes", "B"},
    {"fit.zipf_s", "s"},
    {"fit.zipf_amo_s", "s"},
    {"fit.app_clustering_s", "s"},
    {"models.draws_per_s", "1/s"},
    {"cache.sweep_s", "s"},
    {"stats.popularity_s", "s"},
    {"par.tasks", "count"},
    {"fed.respond_read_us", "us"},
    {"fed.respond_query_us", "us"},
    {"fed.upstream_calls_per_request", "ratio"},
    {"fed.hedge_share", "ratio"},
    {"fed.hedge_win_ratio", "ratio"},
    {"load.lateness_p99_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

/// The reference task runs this many times right after the workload (not
/// before it: its buffers would then count in the workload's peak RSS).
constexpr int kReferenceRepeats = 5;
/// Reference-task CPU seconds that the gated CPU figures are scaled to.
constexpr double kReferenceTaskS = 0.075;

struct Args {
  std::string workload;
  RunArgs run;
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload crawl_study|serve_ingest|fed_scatter "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.run.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.run.work_dir = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(flag));
    }
  }
  if (args.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(args.run.seconds > 0.0)) usage("--seconds must be positive");
  if (args.run.work_dir.empty()) args.run.work_dir = ".bench_build/work";
  return args;
}

void print_metric(const std::string& name, const Metric& metric) {
  std::printf("  %-34s %14.6g %-6s n=%llu\n", name.c_str(), metric.value, metric.unit.c_str(),
              static_cast<unsigned long long>(metric.samples));
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::map<std::string, std::function<RunResult(const RunArgs&)>> workloads = {
      {"crawl_study", run_crawl_study},
      {"serve_ingest", run_serve_ingest},
      {"fed_scatter", run_fed_scatter},
  };
  const auto found = workloads.find(args.workload);
  if (found == workloads.end()) usage("unknown workload " + args.workload);

  RunResult result;
  std::vector<double> reference_s;
  try {
    std::filesystem::create_directories(args.run.work_dir);
    result = found->second(args.run);
    for (int i = 0; i < kReferenceRepeats; ++i) reference_s.push_back(reference_task_s());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), error.what());
    return 1;
  }
  for (const auto& declared : kEndToEnd) {
    if (result.end_to_end.count(declared.name) == 0) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n", args.workload.c_str(),
                   declared.name);
      return 1;
    }
  }
  // On a shared host the CPU time of fixed work follows the host's speed
  // (NOTES.md, "Host speed"). The gated CPU figures are therefore scaled to
  // seconds of a host on which the reference task, which runs no program
  // code, takes kReferenceTaskS; the measured CPU seconds are printed beside
  // them.
  const double reference = median(reference_s);
  result.detail["host.reference_task_s"] = Metric{reference, "s", reference_s.size()};
  for (const char* name : {"setup_s", "work_cpu_s"}) {
    Metric& metric = result.end_to_end.at(name);
    result.detail[std::string(name) + ".measured"] = metric;
    metric.value *= kReferenceTaskS / reference;
  }
  for (const auto& declared : kPerLayer) {
    result.per_layer.try_emplace(declared.name, Metric{0.0, declared.unit, 0});
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.run.seed), args.run.seconds,
              args.run.trace ? 1 : 0);
  std::printf("host:\n  nproc=%zu compiler=%s build_type=%s source_digest=%s\n", nproc(),
              compiler().c_str(), build_type().c_str(), args.source_digest.c_str());
  std::printf("settings:\n");
  for (const auto& [key, value] : result.settings) {
    std::printf("  %s=%s\n", key.c_str(), value.c_str());
  }
  std::printf("end-to-end%s:\n", args.run.trace ? " (traced run: not for comparison)" : "");
  for (const auto& [name, metric] : result.end_to_end) print_metric(name, metric);
  const double error_rate = result.attempted == 0 ? 0.0
                                                  : static_cast<double>(result.failed) /
                                                        static_cast<double>(result.attempted);
  std::printf("  %-34s %14.6g %-6s n=%llu\n", "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(result.attempted));
  std::printf("detail:\n");
  for (const auto& [name, metric] : result.detail) print_metric(name, metric);
  if (args.run.trace) {
    std::printf("per-layer:\n");
    for (const auto& [name, metric] : result.per_layer) print_metric(name, metric);
  }
  std::printf("checks: %s\n", result.failures.empty() ? "all passed" : "FAILED");
  for (const auto& failure : result.failures) std::printf("  FAILED %s\n", failure.c_str());

  const auto& reported = args.run.trace ? result.per_layer : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += result.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// Response-cache comparison on the worker-pool server.
//
// Drives an identical closed-loop socket schedule (8 persistent clients,
// cached endpoints: /api/v1/meta + /api/v1/apps pages) against the same
// generated store served twice by the same server:
//   baseline — response cache off (every request recomputes its answer);
//   cached   — per-day response cache on.
// The speedup therefore names one layer, the response cache. Prints both
// runs and the throughput speedup, and records the comparison in
// results/BENCH_serving.json (see docs/serving.md for how to read it).
#include <cmath>
#include <memory>

#include "common.hpp"
#include "crawler/service.hpp"
#include "load/harness.hpp"
#include "load/report.hpp"
#include "load/workload.hpp"
#include "report/table.hpp"

namespace {

using namespace appstore;

constexpr double kUnlimited = 1e12;  // effectively disable rate limiting

[[nodiscard]] load::RunReport run_against(const market::AppStore& store,
                                          const load::Schedule& schedule, bool cache,
                                          obs::Registry* metrics,
                                          std::uint64_t* cache_hits,
                                          std::uint64_t* cache_misses) {
  crawlersim::ServicePolicy policy;
  policy.rate_per_second = kUnlimited;
  policy.burst = kUnlimited;
  policy.cache_responses = cache;
  crawlersim::AppstoreService service(store, policy);
  service.set_day(60);

  load::RunOptions options;
  options.service = &service;
  options.over_sockets = true;
  options.metrics = metrics;
  load::RunReport report = load::run(schedule, options);
  if (cache_hits != nullptr || cache_misses != nullptr) {
    const obs::Snapshot snapshot = service.metrics().snapshot();
    const auto* hit = snapshot.find_counter("service_response_cache_total", "hit");
    const auto* miss = snapshot.find_counter("service_response_cache_total", "miss");
    if (cache_hits != nullptr) *cache_hits = hit != nullptr ? hit->value : 0;
    if (cache_misses != nullptr) *cache_misses = miss != nullptr ? miss->value : 0;
  }
  service.stop();
  return report;
}

void add_row(report::Table& table, const char* name, const load::RunReport& report) {
  table.row({name, util::format("{:.0f}", report.throughput_rps),
                 util::format("{:.0f}", report.latency[0].p50 * 1e6),
                 util::format("{:.0f}", report.latency[0].p99 * 1e6),
                 util::format("{:.0f}", report.latency[1].p50 * 1e6),
                 util::format("{:.0f}", report.latency[1].p99 * 1e6),
                 std::to_string(report.totals.shed + report.totals.transport_errors)});
}

}  // namespace

int main(int argc, char** argv) {
  benchx::BenchCli cli("bench_serving",
                       "worker-pool server with vs without its response cache "
                       "under identical closed-loop load",
                       // Large app scale on purpose: the directory scan must
                       // dominate the uncached request so the comparison
                       // measures the cache, not socket syscalls.
                       1.0, 1e-5);
  auto clients = cli.raw().u64("clients", 8, "concurrent load clients");
  auto requests = cli.raw().u64("requests", 400, "requests per client");
  auto out_path = cli.raw().str("out", "results/BENCH_serving.json",
                                "comparison report destination");
  cli.parse(argc, argv);

  benchx::print_heading(
      "serving: worker pool + per-day response cache",
      "the measurement substrate is a daily crawl of store front-ends (§2.1-2.2); "
      "serving that crawl fast is the repo's north star");

  const auto generated = synth::generate(synth::anzhi(), cli.config());
  const market::AppStore& store = *generated.store;

  load::ScheduleOptions schedule_options;
  schedule_options.seed = cli.seed();
  schedule_options.clients = static_cast<std::uint32_t>(*clients);
  schedule_options.requests_per_client = static_cast<std::uint32_t>(*requests);
  // Cached endpoints only: the acceptance comparison targets the fast path.
  schedule_options.mix.meta_weight = 0.2;
  schedule_options.mix.apps_weight = 0.8;
  schedule_options.mix.app_weight = 0.0;
  schedule_options.mix.comments_weight = 0.0;
  schedule_options.mix.per_page = 100;
  schedule_options.mix.app_count =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(store.apps().size()));
  // A handful of hot directory pages, requested over and over — the shape of
  // a daily crawl where every client walks the same front pages. More pages
  // would only measure cold-miss cost, which is the baseline's cost anyway.
  schedule_options.mix.directory_pages = std::min<std::uint32_t>(
      20, std::max<std::uint32_t>(
              1, static_cast<std::uint32_t>(
                     (store.apps().size() + schedule_options.mix.per_page - 1) /
                     schedule_options.mix.per_page)));
  const load::Schedule schedule = load::build_schedule(schedule_options);

  load::ServingComparison comparison;
  comparison.baseline =
      run_against(store, schedule, /*cache=*/false, nullptr, nullptr, nullptr);
  comparison.cached = run_against(store, schedule, /*cache=*/true, &cli.metrics(),
                                  &comparison.cache_hits, &comparison.cache_misses);
  comparison.speedup = comparison.baseline.throughput_rps > 0.0
                           ? comparison.cached.throughput_rps /
                                 comparison.baseline.throughput_rps
                           : 0.0;
  comparison.notes =
      "closed loop over real sockets; identical seeded schedule; latency in the table "
      "is microseconds";

  report::Table table({"server", "rps", "meta p50us", "meta p99us", "apps p50us",
                       "apps p99us", "shed+err"});
  add_row(table, "worker-pool, no cache", comparison.baseline);
  add_row(table, "worker-pool + cache", comparison.cached);
  benchx::print_table(table);
  std::printf("speedup: %.2fx (cache: %llu hits / %llu misses)\n", comparison.speedup,
              static_cast<unsigned long long>(comparison.cache_hits),
              static_cast<unsigned long long>(comparison.cache_misses));

  cli.metrics().gauge("serving_speedup").set(comparison.speedup);
  load::write_json_file(load::to_json(comparison), *out_path);
  cli.dump_metrics();
  return 0;
}

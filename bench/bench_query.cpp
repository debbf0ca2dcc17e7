// Online query engine acceptance bench (ISSUE 6).
//
// Runs each /api/query aggregate kind through the query engine twice under a
// user-selective filter: once with the planner free to choose CSR index
// scans (the production configuration) and once with index scans disabled so
// every clause falls back to a full column scan (the naive baseline). The
// planned path must beat the naive path by >= 2x on the seeded store — that
// is the index-filter payoff the planner exists for. Latency percentiles per
// kind and the derived speedups land in results/BENCH_query.json (and the
// metrics registry via --metrics-out, like bench_serving).
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <vector>

#include "common.hpp"
#include "load/report.hpp"
#include "query/engine.hpp"

namespace {

using namespace appstore;

struct KindReport {
  std::string kind;
  double planned_p50_us = 0.0;
  double planned_p99_us = 0.0;
  double naive_p50_us = 0.0;
  double naive_p99_us = 0.0;
  double speedup = 0.0;  ///< naive_p50 / planned_p50
};

[[nodiscard]] double percentile_us(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[rank] * 1e6;
}

[[nodiscard]] std::vector<double> time_runs(const query::QueryEngine& engine,
                                            query::QuerySpec spec, std::uint32_t user_count,
                                            std::size_t reps) {
  std::vector<double> seconds;
  seconds.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    // Rotate the selected user so no run can ride a warm allocation of the
    // previous one; the filter stays equally selective.
    spec.filter = query::parse_filter(
        util::format("user == {}", user_count == 0 ? 0 : i % user_count));
    const auto start = std::chrono::steady_clock::now();
    const query::QueryResult result = engine.run(spec, /*day=*/1 << 20);
    (void)result;
    const auto stop = std::chrono::steady_clock::now();
    seconds.push_back(std::chrono::duration<double>(stop - start).count());
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::BenchCli cli("bench_query",
                       "planned (index-scan) vs naive full-scan execution of the four "
                       "/api/v1/query aggregate kinds under a user-selective filter");
  auto reps = cli.raw().u64("reps", 40, "timed runs per kind and configuration");
  auto out_path =
      cli.raw().str("out", "results/BENCH_query.json", "report destination");
  cli.parse(argc, argv);

  benchx::print_heading(
      "query: predicate planner over the columnar spine",
      "per-user analytics over millions of app-usage events needs index scans, "
      "not full-log scans (PAPERS.md: mining behavioral patterns at scale)");

  // Comments on: category_affinity runs over the comment log.
  synth::GeneratorConfig config = cli.config();
  config.comments = true;
  const auto generated = synth::generate(synth::anzhi(), config);
  const market::AppStore& store = *generated.store;

  query::QueryOptions planned_options;
  planned_options.threads = cli.threads();
  const query::QueryEngine planned(store, planned_options, &cli.metrics());

  query::QueryOptions naive_options = planned_options;
  naive_options.allow_index_scan = false;
  const query::QueryEngine naive(store, naive_options, nullptr);

  const std::uint32_t user_count = store.user_count();
  const std::array<query::AggregateKind, query::kAggregateKindCount> kinds = {
      query::AggregateKind::kTopKDownloads, query::AggregateKind::kParetoShare,
      query::AggregateKind::kCategoryAffinity, query::AggregateKind::kRankDownloadCurve};

  std::vector<KindReport> reports;
  for (const query::AggregateKind kind : kinds) {
    query::QuerySpec spec;
    spec.kind = kind;
    const std::vector<double> planned_s =
        time_runs(planned, spec, user_count, static_cast<std::size_t>(*reps));
    const std::vector<double> naive_s =
        time_runs(naive, spec, user_count, static_cast<std::size_t>(*reps));
    KindReport report;
    report.kind = std::string(query::to_string(kind));
    report.planned_p50_us = percentile_us(planned_s, 0.50);
    report.planned_p99_us = percentile_us(planned_s, 0.99);
    report.naive_p50_us = percentile_us(naive_s, 0.50);
    report.naive_p99_us = percentile_us(naive_s, 0.99);
    report.speedup = report.planned_p50_us > 0.0
                         ? report.naive_p50_us / report.planned_p50_us
                         : 0.0;
    reports.push_back(report);
  }

  report::Table table({"kind", "planned p50 (us)", "planned p99 (us)", "naive p50 (us)",
                       "naive p99 (us)", "speedup"});
  double headline = 0.0;
  for (const KindReport& report : reports) {
    table.row({report.kind, util::format("{:.1f}", report.planned_p50_us),
               util::format("{:.1f}", report.planned_p99_us),
               util::format("{:.1f}", report.naive_p50_us),
               util::format("{:.1f}", report.naive_p99_us),
               util::format("{:.2f}", report.speedup)});
    if (report.kind == "top_k_downloads") headline = report.speedup;
  }
  benchx::print_table(table);
  std::printf("planned-vs-full-scan speedup (top_k_downloads): %.2fx\n", headline);

  crawlersim::JsonArray kinds_json;
  for (const KindReport& report : reports) {
    kinds_json.push_back(crawlersim::json_object(
        {{"kind", report.kind},
         {"planned_p50_us", report.planned_p50_us},
         {"planned_p99_us", report.planned_p99_us},
         {"naive_p50_us", report.naive_p50_us},
         {"naive_p99_us", report.naive_p99_us},
         {"speedup", report.speedup}}));
  }
  const crawlersim::Json document = crawlersim::json_object(
      {{"bench", "query"},
       {"store", store.name()},
       {"seed", cli.seed()},
       {"reps", *reps},
       {"download_rows", static_cast<std::uint64_t>(store.download_log().size())},
       {"comment_rows", static_cast<std::uint64_t>(store.comment_log().size())},
       {"users", static_cast<std::uint64_t>(user_count)},
       {"kinds", crawlersim::Json(std::move(kinds_json))},
       {"speedup", headline}});
  if (load::write_json_file(document, *out_path)) {
    std::printf("wrote %s\n", out_path->c_str());
  }

  cli.metrics().gauge("query_speedup").add(headline);
  cli.dump_metrics();
  return headline >= 2.0 ? 0 : 1;
}

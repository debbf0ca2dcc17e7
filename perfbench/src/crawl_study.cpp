// crawl_study: the paper's own pipeline. A generated Anzhi-profile store is
// served on loopback; a crawler with one keep-alive connection per thread
// crawls a fixed set of days (statistics, comments, APKs); the crawled
// database is then analysed (Pareto shares, trunk power law, MLE, updates,
// ad share), the three download models are fitted on a fixed grid, and an
// LRU sweep (Fig. 19) runs on a stream drawn from the fitted APP-CLUSTERING
// parameters. Passes repeat until the run's time is spent.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/sim.hpp"
#include "crawler/crawler.hpp"
#include "crawler/service.hpp"
#include "fit/sweep.hpp"
#include "host.hpp"
#include "models/model.hpp"
#include "models/stream.hpp"
#include "stats.hpp"
#include "stats/mle.hpp"
#include "stats/pareto.hpp"
#include "stats/powerlaw.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using namespace appstore;

const std::vector<market::Day> kCrawlDays = {0, 10, 20, 30, 40, 50, 59};

/// The crawled store: more apps and fewer users than the online workloads'
/// store. Scaling apps down 100x while per-user downloads d stay fixed
/// (~125) makes a user fetch a fifth of all apps, a regime far from the
/// paper's (d/A = 0.2 %) in which fetch-at-most-once dominates and
/// ZIPF-at-most-once fitted better than APP-CLUSTERING for some seeds; at
/// 3000 apps (d/A ~ 4 %) the paper's order held for every seed tried.
synth::GeneratorConfig crawl_config(std::uint64_t seed, obs::Registry* metrics) {
  synth::GeneratorConfig config = store_config(seed, metrics);
  config.app_scale = 0.05;
  config.download_scale = 2e-5;
  return config;
}

/// What one crawl+analysis pass measured.
struct Pass {
  double crawl_s = 0.0;
  double analysis_s = 0.0;
  double cpu_s = 0.0;
  double fetch_p50_ms = 0.0;
  double fetch_p90_ms = 0.0;
  double fetch_p99_ms = 0.0;
  std::uint64_t fetches = 0;
  crawlersim::CrawlStats stats;
  std::uint64_t expected_observations = 0;
  std::uint64_t apk_bytes = 0;
  std::uint64_t model_draws = 0;
  double model_seconds = 0.0;
  std::uint64_t par_tasks = 0;
  double fit_distance[3] = {0.0, 0.0, 0.0};
  models::ModelParams clustering;  ///< the APP-CLUSTERING fit
};

struct Study {
  const synth::GeneratedStore& generated;
  crawlersim::AppstoreService& service;
  std::uint64_t seed;
  Tracer& tracer;
};

Pass run_pass(const Study& study, RunResult& result, std::size_t pass_index) {
  const market::AppStore& store = *study.generated.store;
  Pass pass;
  obs::Registry crawl_metrics;
  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions options;
  options.port = study.service.port();
  options.proxy_count = 1;  // one keep-alive connection per crawler thread
  options.proxy_regions = {net::Region::kChina};
  options.threads = nproc();
  options.fetch_comments = true;
  options.fetch_apks = true;
  options.seed = study.seed + pass_index;
  options.metrics = &crawl_metrics;
  crawlersim::Crawler crawler(options, database);

  const double cpu_start = process_cpu_s();
  const auto crawl_start = Tracer::now_ns();
  for (const market::Day day : kCrawlDays) {
    study.service.set_day(day);
    const auto span = study.tracer.span("crawler.crawl_day");
    (void)crawler.crawl_day(day);
  }
  pass.crawl_s = static_cast<double>(Tracer::now_ns() - crawl_start) / 1e9;
  pass.stats = crawler.totals();

  const obs::Snapshot crawl_snapshot = crawl_metrics.snapshot();
  if (const auto* fetch = crawl_snapshot.find_histogram("crawler_fetch_seconds")) {
    pass.fetch_p50_ms = fetch->p50 * 1e3;
    pass.fetch_p90_ms = fetch->p90 * 1e3;
    pass.fetch_p99_ms = fetch->p99 * 1e3;
    pass.fetches = fetch->count;
  }
  if (const auto* bytes = crawl_snapshot.find_counter("crawler_apk_bytes_total")) {
    pass.apk_bytes = bytes->value;
  }

  // Check: at every crawl day the crawled rank curve is the ground truth.
  for (const market::Day day : kCrawlDays) {
    const auto truth_by_app = synth::downloads_at_day(store, day);
    std::vector<double> truth;
    for (const auto& app : store.apps()) {
      if (app.released <= day) truth.push_back(static_cast<double>(truth_by_app[app.id.index()]));
    }
    std::sort(truth.begin(), truth.end(), std::greater<>());
    pass.expected_observations += truth.size();
    result.check(database.downloads_by_rank(day) == truth,
                 "crawl_study: crawled downloads_by_rank differs from ground truth at day " +
                     std::to_string(day));
  }

  // Analysis of the crawled database.
  obs::Registry analysis_metrics;
  const auto analysis_start = Tracer::now_ns();
  const market::Day last = kCrawlDays.back();
  const std::vector<double> by_rank = database.downloads_by_rank(last, false);
  {
    const auto span = study.tracer.span("stats.popularity");
    double shares = 0.0;
    for (const double fraction : {0.01, 0.05, 0.10, 0.20}) {
      shares += stats::top_share(by_rank, fraction);
    }
    const auto truncation = stats::analyze_truncation(by_rank);
    const auto mle = stats::fit_power_law_mle_auto(by_rank);
    const auto updates = database.updates_per_app();
    const double ads = database.free_apps_with_ads_fraction();
    result.check(shares > 0.0 && truncation.trunk.exponent > 0.0 && mle.alpha > 1.0 &&
                     !updates.empty() && ads > 0.0 && ads < 1.0,
                 "crawl_study: popularity analysis returned a degenerate result");
  }
  const auto users = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(by_rank.front()));
  const auto clusters = static_cast<std::uint32_t>(store.categories().size());
  fit::SweepOptions sweep;  // the paper's grid (SweepOptions defaults), Monte Carlo
  sweep.seed = study.seed;
  sweep.threads = nproc();
  const models::ModelKind kinds[3] = {models::ModelKind::kZipf,
                                      models::ModelKind::kZipfAtMostOnce,
                                      models::ModelKind::kAppClustering};
  const char* fit_spans[3] = {"fit.zipf", "fit.zipf_amo", "fit.app_clustering"};
  fit::FitResult clustering;
  for (int k = 0; k < 3; ++k) {
    const auto span = study.tracer.span(fit_spans[k]);
    fit::FitResult fitted = fit::fit_model(kinds[k], by_rank, users, clusters, sweep);
    pass.fit_distance[k] = fitted.distance;
    if (k == 2) clustering = std::move(fitted);
  }
  pass.clustering = clustering.best;
  result.check(pass.fit_distance[2] < pass.fit_distance[1] &&
                   pass.fit_distance[1] < pass.fit_distance[0],
               "crawl_study: fitted distances break APP-CLUSTERING < ZIPF-at-most-once < ZIPF");
  {
    const auto span = study.tracer.span("cache.sweep");
    const auto model = models::make_model(models::ModelKind::kAppClustering, clustering.best);
    util::Rng rng(study.seed);
    models::StreamOptions stream_options;
    stream_options.metrics = &analysis_metrics;
    stream_options.threads = nproc();
    const events::EventLog stream = models::generate_stream_log(*model, rng, stream_options);
    std::vector<std::size_t> sizes;
    const std::size_t apps = clustering.best.app_count;
    for (int percent = 1; percent <= 20; ++percent) {
      sizes.push_back(std::max<std::size_t>(1, apps * static_cast<std::size_t>(percent) / 100));
    }
    const auto points = cache::sweep_cache_sizes(cache::PolicyKind::kLru, sizes, stream, {},
                                                 study.seed, &analysis_metrics, nproc());
    result.check(points.size() == sizes.size() &&
                     points.back().hit_ratio >= points.front().hit_ratio,
                 "crawl_study: LRU hit ratio does not grow with cache size");
  }
  pass.analysis_s = static_cast<double>(Tracer::now_ns() - analysis_start) / 1e9;
  pass.cpu_s = process_cpu_s() - cpu_start;

  const obs::Snapshot analysis_snapshot = analysis_metrics.snapshot();
  if (const auto* draws = analysis_snapshot.find_counter("model_draws_total", "APP-CLUSTERING")) {
    pass.model_draws = draws->value;
  }
  if (const auto* seconds =
          analysis_snapshot.find_histogram("model_generate_seconds", "APP-CLUSTERING")) {
    pass.model_seconds = seconds->sum;
  }
  if (const auto* tasks = analysis_snapshot.find_counter("par_tasks_total")) {
    pass.par_tasks = tasks->value;
  }
  return pass;
}

}  // namespace

RunResult run_crawl_study(const RunArgs& args) {
  RunResult result;
  Tracer tracer(false);
  obs::Registry synth_metrics;

  // Set-up, repeated; the last store and service are kept.
  SetupTimes setup;
  std::unique_ptr<synth::GeneratedStore> generated;
  std::unique_ptr<crawlersim::AppstoreService> service;
  std::vector<double> generate_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    generated.reset();
    setup.start();
    const auto start = Tracer::now_ns();
    generated = std::make_unique<synth::GeneratedStore>(synth::generate(
        synth::anzhi(), crawl_config(args.seed, rep == 0 ? &synth_metrics : nullptr)));
    generate_s.push_back(static_cast<double>(Tracer::now_ns() - start) / 1e9);
    service = std::make_unique<crawlersim::AppstoreService>(*generated->store, lifted_policy());
    setup.stop();
  }
  setup.report(result);

  const Study study{*generated, *service, args.seed, tracer};
  const obs::Snapshot service_before = service->metrics().snapshot();
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const auto budget_ns = static_cast<std::int64_t>(args.seconds * 1e9);
  const auto timed_start = Tracer::now_ns();
  for (std::size_t pass = 0;; ++pass) {
    // The traced run alternates traced and untraced passes so the tracing
    // overhead is measured against untraced passes of the same run.
    const bool trace_this = args.trace && pass % 2 == 1;
    tracer.set_enabled(trace_this);
    Pass measured = run_pass(study, result, pass);
    (trace_this ? traced : untraced).push_back(measured);
    const auto elapsed = Tracer::now_ns() - timed_start;
    const std::size_t done = untraced.size() + traced.size();
    const bool min_done = !args.trace || !traced.empty();
    if (min_done && elapsed + elapsed / static_cast<std::int64_t>(done) > budget_ns) break;
  }
  tracer.set_enabled(false);
  service->stop();
  const DeltaSet service_delta{{{service_before, service->metrics().snapshot()}}};

  // End-to-end: medians over untraced passes.
  auto pick = [&](double Pass::*field) {
    std::vector<double> values;
    for (const Pass& pass : untraced) values.push_back(pass.*field);
    return median(values);
  };
  const auto passes = static_cast<std::uint64_t>(untraced.size());
  std::uint64_t fetches = 0;
  for (const Pass& pass : untraced) fetches += pass.fetches;
  result.detail["read_p50_ms"] = Metric{pick(&Pass::fetch_p50_ms), "ms", fetches};
  result.detail["read_p90_ms"] = Metric{pick(&Pass::fetch_p90_ms), "ms", fetches};
  result.detail["read_p99_ms"] = Metric{pick(&Pass::fetch_p99_ms), "ms", fetches};
  std::vector<double> work;
  for (const Pass& pass : untraced) work.push_back(pass.crawl_s + pass.analysis_s);
  result.detail["work_s"] = Metric{median(work), "s", passes};
  result.end_to_end["work_cpu_s"] = Metric{pick(&Pass::cpu_s), "s", passes};
  result.detail["crawl_s"] = Metric{pick(&Pass::crawl_s), "s", passes};
  const char* distance_names[3] = {"fit_distance.zipf", "fit_distance.zipf_amo",
                                   "fit_distance.app_clustering"};
  for (int k = 0; k < 3; ++k) {
    result.detail[distance_names[k]] = Metric{untraced.front().fit_distance[k], "ratio", 1};
  }
  result.detail["analysis_s"] = Metric{pick(&Pass::analysis_s), "s", passes};
  const models::ModelParams& fitted = untraced.front().clustering;
  result.detail["fit.app_clustering.zr"] = Metric{fitted.zr, "1", 1};
  result.detail["fit.app_clustering.p"] = Metric{fitted.p, "1", 1};
  result.detail["fit.app_clustering.zc"] = Metric{fitted.zc, "1", 1};

  for (const auto* group : {&untraced, &traced}) {
    for (const Pass& pass : *group) {
      const auto& s = pass.stats;
      result.attempted += s.requests;
      const std::uint64_t missing =
          pass.expected_observations > s.apps_observed ? pass.expected_observations - s.apps_observed
                                                       : 0;
      result.failed += s.rate_limited + s.region_blocked + s.transient_failures + missing;
    }
  }

  result.check(result.failed == 0, "crawl_study: no fetch was refused, retried or missed (" +
                                       std::to_string(result.failed) + " of " +
                                       std::to_string(result.attempted) + ")");

  // Per-layer, from the traced passes.
  if (args.trace) {
    const std::vector<Span> spans = tracer.spans();
    auto& layer = result.per_layer;
    const Pass& first = traced.front();
    layer["synth.generate_s"] = Metric{median(generate_s), "s", generate_s.size()};
    layer["crawler.crawl_day_s"] =
        Metric{span_median(spans, "crawler.crawl_day", 1e-9), "s",
               durations_ns(spans, "crawler.crawl_day").size()};
    layer["crawler.requests"] = Metric{static_cast<double>(first.stats.requests), "count", 1};
    layer["crawler.retries"] =
        Metric{static_cast<double>(first.stats.rate_limited + first.stats.transient_failures),
               "count", 1};
    layer["crawler.apk_bytes"] = Metric{static_cast<double>(first.apk_bytes), "B", 1};
    layer["fit.zipf_s"] = Metric{span_median(spans, "fit.zipf", 1e-9), "s", traced.size()};
    layer["fit.zipf_amo_s"] = Metric{span_median(spans, "fit.zipf_amo", 1e-9), "s", traced.size()};
    layer["fit.app_clustering_s"] =
        Metric{span_median(spans, "fit.app_clustering", 1e-9), "s", traced.size()};
    layer["cache.sweep_s"] = Metric{span_median(spans, "cache.sweep", 1e-9), "s", traced.size()};
    layer["stats.popularity_s"] =
        Metric{span_median(spans, "stats.popularity", 1e-9), "s", traced.size()};
    layer["models.draws_per_s"] =
        Metric{first.model_seconds > 0 ? static_cast<double>(first.model_draws) / first.model_seconds
                                       : 0.0,
               "1/s", first.model_draws};
    const obs::Snapshot synth_snapshot = synth_metrics.snapshot();
    const auto* synth_tasks = synth_snapshot.find_counter("par_tasks_total");
    layer["par.tasks"] = Metric{
        static_cast<double>(first.par_tasks + (synth_tasks != nullptr ? synth_tasks->value : 0)),
        "count", 1};
    put_net_layers(layer, service_delta, result.attempted);
    put_service_layers(layer, service_delta, 1);
    std::vector<double> plain;
    std::vector<double> with_trace;
    for (const Pass& pass : untraced) plain.push_back(pass.cpu_s);
    for (const Pass& pass : traced) with_trace.push_back(pass.cpu_s);
    layer["trace.overhead_ratio"] = Metric{median(with_trace) / median(plain), "ratio",
                                           traced.size() + untraced.size()};
    layer["trace.spans"] = Metric{static_cast<double>(spans.size()), "count", 1};
  }

  result.setting("profile", "anzhi");
  result.setting("app_scale", "0.05");
  result.setting("download_scale", "2e-05");
  result.setting("apps", std::to_string(generated->store->apps().size()));
  result.setting("users", std::to_string(generated->store->user_count()));
  result.setting("crawl_days", "0,10,20,30,40,50,59");
  result.setting("crawler_threads", std::to_string(nproc()));
  result.setting("crawler_connections", std::to_string(nproc()) + " (one keep-alive each)");
  result.setting("analysis_threads", std::to_string(nproc()));
  result.setting("fit_grid", "SweepOptions defaults: zr {0.8..1.8 step 0.2}, p {0.8,0.9,0.95}, "
                             "zc {1.2,1.4,1.6}; Monte Carlo; U = rank-1 downloads, C = categories");
  result.setting("token_buckets",
                 "lifted (rate=burst=1e12): 429 backoff sleeps would be measured in place of "
                 "the program");
  result.setting("passes", std::to_string(untraced.size() + traced.size()));
  result.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb(), "MiB", 1};
  return result;
}

}  // namespace perfbench

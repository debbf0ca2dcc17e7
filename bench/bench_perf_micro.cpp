// Performance microbenchmarks (google-benchmark): the hot paths that bound
// simulation throughput — Zipf/alias sampling, model session steps, cache
// operations, affinity computation, JSON handling, HTTP round-trips, and the
// src/par scaling sweeps (stream generation, fit sweep, bootstrap at 1/2/4/8
// threads), and the query kernels against a STREAM-style read-bandwidth
// bound. `--metrics-out=FILE` writes per-benchmark wall times and derived
// par_speedup gauges as a metrics JSON (results/BENCH_parallel.json is the
// checked-in baseline).
#include <benchmark/benchmark.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "affinity/metric.hpp"
#include "cache/policy.hpp"
#include "chaos/fault.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "events/event_log.hpp"
#include "fit/sweep.hpp"
#include "market/store.hpp"
#include "synth/generator.hpp"
#include "models/app_clustering_model.hpp"
#include "models/stream.hpp"
#include "models/zipf_amo_model.hpp"
#include "models/zipf_model.hpp"
#include "net/server.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "query/engine.hpp"
#include "stats/bootstrap.hpp"
#include "stats/zipf.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

using namespace appstore;

void BM_ZipfSamplerDraw(benchmark::State& state) {
  const stats::ZipfSampler sampler(static_cast<std::uint64_t>(state.range(0)), 1.4);
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_ZipfSamplerDraw)->Arg(1000)->Arg(100000);

void BM_ZipfSamplerBuild(benchmark::State& state) {
  for (auto _ : state) {
    const stats::ZipfSampler sampler(static_cast<std::uint64_t>(state.range(0)), 1.4);
    benchmark::DoNotOptimize(sampler.size());
  }
}
BENCHMARK(BM_ZipfSamplerBuild)->Arg(1000)->Arg(100000);

void BM_ModelSessionStep(benchmark::State& state) {
  models::ModelParams params;
  params.app_count = 60000;
  params.user_count = 1000;
  params.downloads_per_user = 10;
  params.zr = 1.7;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;
  const auto kind = static_cast<models::ModelKind>(state.range(0));
  const auto model = models::make_model(kind, params);
  util::Rng rng(2);
  // A new user every d = 10 draws on one session reset between users, as
  // DownloadModel::generate runs them: a step must not pay O(A) per user.
  const auto session = model->new_session();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    if (steps++ % 10 == 0 || session->exhausted()) session->reset();
    benchmark::DoNotOptimize(session->next(rng));
  }
  state.SetLabel(std::string(to_string(kind)));
}
BENCHMARK(BM_ModelSessionStep)->Arg(0)->Arg(1)->Arg(2);

void BM_LruAccess(benchmark::State& state) {
  cache::LruCache cache(static_cast<std::size_t>(state.range(0)));
  const stats::ZipfSampler sampler(60000, 1.7);
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(static_cast<std::uint32_t>(sampler.sample_index(rng))));
  }
}
BENCHMARK(BM_LruAccess)->Arg(600)->Arg(6000);

void BM_ClusterLruAccess(benchmark::State& state) {
  std::vector<std::uint32_t> app_category(60000);
  for (std::uint32_t a = 0; a < app_category.size(); ++a) app_category[a] = a % 30;
  cache::ClusterLruCache cache(static_cast<std::size_t>(state.range(0)), app_category);
  const stats::ZipfSampler sampler(60000, 1.7);
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(static_cast<std::uint32_t>(sampler.sample_index(rng))));
  }
}
BENCHMARK(BM_ClusterLruAccess)->Arg(600)->Arg(6000);

void BM_AffinityDepth(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<std::uint32_t> categories(200);
  for (auto& c : categories) c = static_cast<std::uint32_t>(rng.below(34));
  const auto depth = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(affinity::affinity(categories, depth));
  }
}
BENCHMARK(BM_AffinityDepth)->Arg(1)->Arg(3);

/// The download-kind partial a shard answers for a day-range query in the
/// fed_scatter store shape: ~600 apps, 580 of them with downloads.
query::PartialAggregate shard_partial() {
  query::PartialAggregate partial;
  partial.kind = query::AggregateKind::kTopKDownloads;
  partial.column_scans = 1;
  partial.rows_total = 35'000;
  partial.app_count = 600;
  util::Rng rng(6);
  for (std::uint32_t app = 0; app < 600; ++app) {
    if (app % 30 == 7) continue;
    const std::uint64_t downloads = 1 + rng.below(5000) / (1 + rng.below(50));
    partial.counts.emplace_back(app, downloads);
    partial.rows_selected += downloads;
  }
  return partial;
}

// Encode and decode of one document, each timed on its own (counters
// `encode_us` / `decode_us`; the iteration time is their sum). Arg 0: a
// 100-id directory page through Json::dump / parse_json. Arg 1: the shard
// partial above through the scatter path's own codec, query_partial_json +
// dump on the shard and parse_json + partial_from_json on the gateway.
void BM_JsonRoundTrip(benchmark::State& state) {
  const bool partial_shape = state.range(0) == 1;
  const query::PartialAggregate partial = shard_partial();
  crawlersim::JsonArray ids;
  for (int i = 0; i < 100; ++i) ids.push_back(crawlersim::Json(i));
  const crawlersim::Json page = crawlersim::json_object(
      {{"page", crawlersim::Json(0)},
       {"total", crawlersim::Json(100)},
       {"ids", crawlersim::Json(std::move(ids))}});
  using Clock = std::chrono::steady_clock;
  Clock::duration encode{};
  Clock::duration decode{};
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto start = Clock::now();
    std::string text =
        partial_shape ? crawlersim::query_partial_json(partial, 59).dump() : page.dump();
    const auto encoded = Clock::now();
    if (partial_shape) {
      benchmark::DoNotOptimize(crawlersim::partial_from_json(*crawlersim::parse_json(text)));
    } else {
      benchmark::DoNotOptimize(crawlersim::parse_json(text));
    }
    const auto decoded = Clock::now();
    encode += encoded - start;
    decode += decoded - encoded;
    bytes = text.size();
  }
  const auto per_iteration_us = [&](Clock::duration total) {
    return std::chrono::duration<double, std::micro>(total).count() /
           static_cast<double>(std::max<benchmark::IterationCount>(1, state.iterations()));
  };
  state.counters["encode_us"] = per_iteration_us(encode);
  state.counters["decode_us"] = per_iteration_us(decode);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
  state.SetLabel(partial_shape ? "shard partial, 580 pairs" : "directory page, 100 ids");
}
BENCHMARK(BM_JsonRoundTrip)->Arg(0)->Arg(1);

void BM_HttpRoundTrip(benchmark::State& state) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong");
  });
  net::HttpClient client("127.0.0.1", server.port());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.get("/ping"));
  }
}
BENCHMARK(BM_HttpRoundTrip);

// Same round-trip with the metrics registry attached: the delta against
// BM_HttpRoundTrip is the full per-request instrumentation cost (acceptance
// bound: <= 5% of the uninstrumented round-trip).
void BM_HttpRoundTripInstrumented(benchmark::State& state) {
  obs::Registry registry;
  net::ServerOptions options;
  options.metrics = &registry;
  net::HttpServer server(std::move(options), [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong");
  });
  net::HttpClient client("127.0.0.1", server.port());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.get("/ping"));
  }
}
BENCHMARK(BM_HttpRoundTripInstrumented);

// Same round-trip with a chaos::FaultInjector wired into the client but a
// plan whose only rule has probability zero: every request consults the
// seam, none is perturbed. The delta against BM_HttpRoundTrip is the cost of
// carrying the fault seam in production builds (expected ~0: one mutex-
// guarded map lookup + a pure hash per request).
void BM_HttpRoundTripFaultSeam(benchmark::State& state) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong");
  });
  chaos::FaultPlan plan;
  plan.rules.push_back(
      {chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset, 0.0, {}});
  chaos::FaultInjector injector(plan);
  net::HttpClient client("127.0.0.1", server.port(),
                         net::ClientOptions{.faults = &injector});
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.get("/ping"));
  }
}
BENCHMARK(BM_HttpRoundTripFaultSeam);

[[nodiscard]] double process_cpu_seconds() {
  timespec now{};
  (void)::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

// Closed-loop keep-alive round trips: state.range(0) PersistentHttpClients,
// one per thread (the timed one plus range(0) - 1 background threads), on
// one worker-pool server, each exchanging pipelined batches of state.range(1)
// requests (1 = one request, then wait for its response). BM_HttpRoundTrip
// pays a TCP handshake per request, which hides the server's per-request
// connection handoff; this is the crawler's pattern, and depth 16 is its
// window. cpu_us_per_req is process CPU (clients, dispatcher and workers)
// per request completed on any connection during the timed loop; req_per_s
// is those requests over the loop's wall time.
void BM_HttpKeepAliveRoundTrip(benchmark::State& state) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "pong");
  });
  const auto depth = static_cast<std::size_t>(state.range(1));
  const auto exchange_batch = [depth](net::PersistentHttpClient& client) {
    std::vector<net::HttpRequest> batch(depth);
    for (net::HttpRequest& request : batch) request.target = "/ping";
    benchmark::DoNotOptimize(client.exchange(batch));
  };
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> background_requests{0};
  std::vector<std::thread> background;
  for (std::int64_t i = 1; i < state.range(0); ++i) {
    background.emplace_back([&server, &stop, &background_requests, &exchange_batch, depth] {
      net::PersistentHttpClient client("127.0.0.1", server.port());
      while (!stop.load(std::memory_order_relaxed)) {
        exchange_batch(client);
        background_requests.fetch_add(depth, std::memory_order_relaxed);
      }
    });
  }
  net::PersistentHttpClient client("127.0.0.1", server.port());
  benchmark::DoNotOptimize(client.get("/ping"));  // connect outside the timing
  const std::uint64_t background_start = background_requests.load();
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    exchange_batch(client);
  }
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - wall_start;
  const double cpu = process_cpu_seconds() - cpu_start;
  const std::uint64_t requests =
      static_cast<std::uint64_t>(state.iterations()) * depth + background_requests.load() -
      background_start;
  stop.store(true);
  for (std::thread& thread : background) thread.join();
  state.counters["cpu_us_per_req"] = cpu * 1e6 / static_cast<double>(requests);
  state.counters["req_per_s"] = static_cast<double>(requests) / wall.count();
}
BENCHMARK(BM_HttpKeepAliveRoundTrip)->ArgsProduct({{1, 4}, {1, 16}});

void BM_CounterInc(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram histogram;
  double value = 1e-6;
  for (auto _ : state) {
    histogram.observe(value);
    value = value < 1.0 ? value * 1.0001 : 1e-6;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramObserve);

// ---- columnar event-log access ---------------------------------------------
// AoS materialization vs zero-copy CSR views over the same comment log. The
// acceptance bound for the events spine is CSR throughput >= 2x materialize.

/// Seeded Anzhi-profile store with comments, built once and shared by the
/// event-access benches (generation dominates otherwise).
const market::AppStore& event_bench_store() {
  static const auto generated = [] {
    synth::GeneratorConfig config;
    config.app_scale = 0.02;
    config.download_scale = 2e-5;
    config.comments = true;
    synth::StoreProfile profile = synth::anzhi();
    profile.commenter_fraction = 0.3;
    return synth::generate(profile, config);
  }();
  return *generated.store;
}

void BM_CommentStreamsMaterialize(benchmark::State& state) {
  const market::AppStore& store = event_bench_store();
  const events::FrontierSnapshot log = store.comment_log();
  const std::uint64_t events = log.size();
  for (auto _ : state) {
    // Full AoS copy of the log into per-user vectors, then one read pass —
    // the batch-era baseline the zero-copy views replaced.
    std::vector<std::vector<events::Event>> streams(log.user_count());
    for (std::uint64_t i = 0; i < events; ++i) {
      const events::Event event = log.row(i);
      streams[event.user].push_back(event);
    }
    std::uint64_t rating_sum = 0;
    for (const auto& stream : streams) {
      for (const auto& event : stream) rating_sum += event.rating;
    }
    benchmark::DoNotOptimize(rating_sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * events));
}
BENCHMARK(BM_CommentStreamsMaterialize);

void BM_CommentStreamsCsrView(benchmark::State& state) {
  const market::AppStore& store = event_bench_store();
  const events::FrontierSnapshot log = store.comment_log();
  const std::uint64_t events = log.size();
  for (auto _ : state) {
    // Same read pass through the tiered-index views: no bulk copy.
    std::uint64_t rating_sum = 0;
    for (std::uint32_t u = 0; u < log.user_count(); ++u) {
      for (const auto event : log.stream(u)) rating_sum += event.rating;
    }
    benchmark::DoNotOptimize(rating_sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * events));
  state.counters["bytes_per_event"] =
      events == 0 ? 0.0
                  : static_cast<double>(store.comment_live().bytes()) /
                        static_cast<double>(events);
}
BENCHMARK(BM_CommentStreamsCsrView);

// ---- query kernels against the read bandwidth -------------------------------
// Single-threaded QueryEngine::run over the serving benchmark's store shape
// (Anzhi profile, app_scale 0.01, download_scale 5e-5: ~140k download rows,
// ~600 apps, ~1100 users). Each kernel reports rows/s over the whole
// download log; BM_ReadBandwidth streams the app and day columns the
// category and day-range kernels must read at least once (8 B/row), so
// kernel rows/s over its rows/s is the kernel's share of achievable read
// bandwidth.

const market::AppStore& query_bench_store() {
  static const auto generated = [] {
    synth::GeneratorConfig config;
    config.app_scale = 0.01;
    config.download_scale = 5e-5;
    config.comments = true;
    return synth::generate(synth::anzhi(), config);
  }();
  return *generated.store;
}

void BM_QueryKernel(benchmark::State& state, std::string_view filter) {
  const market::AppStore& store = query_bench_store();
  query::QueryOptions options;
  options.threads = 1;
  const query::QueryEngine engine(store, options);
  const std::uint64_t rows = store.download_log().size();
  market::Day last_day = 0;
  for (const std::int32_t day : store.download_log().day()) last_day = std::max(last_day, day);
  const auto categories = static_cast<std::uint64_t>(store.categories().size());

  // A pool of filters rotated per iteration, so no run rides the previous
  // one's cache state; each is as selective as perfbench's query mix.
  std::vector<query::QuerySpec> specs(64);
  util::Rng rng(17);
  for (query::QuerySpec& spec : specs) {
    std::string text;
    if (filter == "user") {
      text = util::format("user == {}", rng.below(store.user_count()));
    } else if (filter == "category") {
      text = util::format("category == {}", rng.below(categories));
    } else {
      const auto span = static_cast<std::uint64_t>(last_day) + 1;
      const std::uint64_t lo = rng.below(span);
      text = util::format("day >= {} and day <= {}", lo, lo + rng.below(span - lo));
    }
    spec.filter = query::parse_filter(text);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(specs[next], last_day));
    next = (next + 1) % specs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * rows));
}
BENCHMARK_CAPTURE(BM_QueryKernel, user, "user")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QueryKernel, category, "category")->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_QueryKernel, day_range, "day_range")->Unit(benchmark::kMicrosecond);

void BM_ReadBandwidth(benchmark::State& state) {
  const events::FrontierSnapshot log = query_bench_store().download_log();
  const std::span<const std::uint32_t> apps = log.app();
  const std::span<const std::int32_t> days = log.day();
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      sum += apps[i] + static_cast<std::uint32_t>(days[i]);
    }
    benchmark::DoNotOptimize(sum);
  }
  const auto rows = static_cast<std::int64_t>(log.size());
  state.SetItemsProcessed(state.iterations() * rows);
  state.SetBytesProcessed(state.iterations() * rows * 8);
}
BENCHMARK(BM_ReadBandwidth)->Unit(benchmark::kMicrosecond);

// ---- src/par scaling sweeps ------------------------------------------------
// Each bench takes the worker-thread count as its argument. Outputs are
// thread-count-invariant (see docs/performance.md), so the arg only changes
// wall time; main() below turns the measured times into par_speedup gauges.

/// Fig.-19 §7 workload: 60k apps, 30 categories, 600k users, 2M downloads.
models::ModelParams fig19_params() {
  models::ModelParams params;
  params.app_count = 60'000;
  params.user_count = 600'000;
  params.downloads_per_user = 2'000'000.0 / 600'000.0;
  params.zr = 1.7;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;
  return params;
}

void BM_StreamGenerateParallel(benchmark::State& state) {
  const auto model =
      models::make_model(models::ModelKind::kAppClustering, fig19_params());
  models::StreamOptions options;
  options.max_requests = 2'000'000;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng rng(6);
    benchmark::DoNotOptimize(models::generate_stream_log(*model, rng, options));
  }
}
BENCHMARK(BM_StreamGenerateParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_FitSweepParallel(benchmark::State& state) {
  // Fig.-8-sized (zr, p, zc) grid against a once-simulated measured curve.
  models::ModelParams params;
  params.app_count = 2'000;
  params.user_count = 5'000;
  params.downloads_per_user = 10.0;
  params.zr = 1.6;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;
  const auto truth = models::make_model(models::ModelKind::kAppClustering, params);
  util::Rng rng(7);
  const auto measured = truth->generate(rng, false).by_rank();

  fit::SweepOptions options;
  options.zr_grid = {1.2, 1.4, 1.6, 1.8};
  options.p_grid = {0.85, 0.9, 0.95};
  options.zc_grid = {1.2, 1.4, 1.6};
  options.seed = 8;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::fit_model(models::ModelKind::kAppClustering, measured,
                                            params.user_count, params.cluster_count,
                                            options));
  }
}
BENCHMARK(BM_FitSweepParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Single-threaded fit at the shape of the crawled store fitted by
/// `perfbench` crawl_study: A=3008 apps, U=450 users, d≈124 downloads per
/// user, C=34 categories, on the default SweepOptions grid. Here d is large
/// enough that fetch-at-most-once bookkeeping dominates each draw, which the
/// d=10 scaling sweep above never exercises.
void BM_FitCrawlShape(benchmark::State& state, models::ModelKind kind) {
  models::ModelParams params;
  params.app_count = 3'008;
  params.user_count = 450;
  params.downloads_per_user = 124.0;
  params.zr = 1.6;
  params.zc = 1.3;
  params.p = 0.85;
  params.cluster_count = 34;
  const auto truth = models::make_model(models::ModelKind::kAppClustering, params);
  util::Rng rng(11);
  const auto measured = truth->generate(rng, false).by_rank();

  fit::SweepOptions options;
  options.seed = 12;
  options.threads = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fit::fit_model(kind, measured, params.user_count, params.cluster_count, options));
  }
  state.SetLabel(std::string(to_string(kind)));
}
BENCHMARK_CAPTURE(BM_FitCrawlShape, zipf_amo, models::ModelKind::kZipfAtMostOnce)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK_CAPTURE(BM_FitCrawlShape, app_clustering, models::ModelKind::kAppClustering)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_BootstrapParallel(benchmark::State& state) {
  util::Rng rng(9);
  std::vector<double> sample(20'000);
  for (auto& v : sample) v = rng.lognormal(0.0, 1.5);
  stats::BootstrapOptions options;
  options.resamples = 2'000;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    util::Rng run_rng(10);
    benchmark::DoNotOptimize(stats::bootstrap_mean_ci(sample, run_rng, options));
  }
}
BENCHMARK(BM_BootstrapParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/// Console reporter that also records every run's real time into a metrics
/// registry (gauge bench_real_seconds{<name>/<arg>}), so --metrics-out ships
/// the raw scaling curve alongside the derived speedups.
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetricsReporter(obs::Registry* registry) : registry_(registry) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      const double iterations =
          std::max<double>(1.0, static_cast<double>(run.iterations));
      // Drop the "/iterations:N" suffix so labels are "BM_Name/arg".
      std::string name = run.benchmark_name();
      if (const auto pos = name.find("/iterations:"); pos != std::string::npos) {
        name.resize(pos);
      }
      registry_->gauge("bench_real_seconds", name)
          .set(run.real_accumulated_time / iterations);
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  obs::Registry* registry_;
};

/// Folds bench_real_seconds{BM_Xxx/N} gauges into par_speedup{BM_Xxx/N}
/// = t(threads=1) / t(threads=N) for the */1-argumented scaling benches.
void record_speedups(obs::Registry& registry) {
  const auto snapshot = registry.snapshot();
  for (const auto& base : snapshot.gauges) {
    if (base.name != "bench_real_seconds") continue;
    const std::string_view label = base.label;
    if (!label.ends_with("/1")) continue;
    const auto family = label.substr(0, label.size() - 2);
    for (const auto& other : snapshot.gauges) {
      if (other.name != "bench_real_seconds" || other.value <= 0.0) continue;
      const std::string_view other_label = other.label;
      const auto slash = other_label.rfind('/');
      if (slash == std::string_view::npos || other_label.substr(0, slash) != family) {
        continue;
      }
      registry.gauge("par_speedup", other.label).set(base.value / other.value);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --metrics-out=FILE (ours) before google-benchmark parses flags.
  std::string metrics_out;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--metrics-out=")) {
      metrics_out = std::string(arg.substr(std::string_view("--metrics-out=").size()));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());

  obs::Registry registry;
  MetricsReporter reporter(&registry);
  benchmark::RunSpecifiedBenchmarks(&reporter);

  record_speedups(registry);
  if (!metrics_out.empty()) obs::write_json_file(registry, metrics_out);
  return 0;
}

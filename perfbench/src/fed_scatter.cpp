// fed_scatter: the same generator and /api/v1 mix, in-process, through a
// FederationGateway over 4 user-sharded shards built by build_federation,
// with default hedging. No ingest and no sockets: scatter, merge_partials
// and hedging do the work, and with no publishes the shard response caches
// stay warm (the opposite of serve_ingest). The gated work figure is the
// process CPU time of one window of the open loop.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "fed/federation.hpp"
#include "fed/gateway.hpp"
#include "host.hpp"
#include "query/engine.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using namespace appstore;

constexpr std::size_t kShards = 4;
constexpr market::Day kEndOfHistory = 1 << 20;
constexpr double kOfferedRateHz = 2000.0;
/// Latency percentiles are medians over this many windows of the open loop.
constexpr std::size_t kLatencyWindows = 12;
/// `work_cpu_s` is the median process CPU seconds of one of this many
/// equal windows of the open loop.
constexpr std::size_t kCpuWindows = 40;

/// A rendered query answer without its plan statistics and scanned-row
/// count: those describe how the answer was computed (per shard, summed by
/// the gateway), not the answer, so they differ from a single store's.
std::string answer_of(const std::string& body) {
  const auto from = body.find("\"plan\":");
  const auto to = body.find("\"rows_selected\"");
  if (from == std::string::npos || to == std::string::npos || to < from) return body;
  return body.substr(0, from) + body.substr(to);
}

struct Bringup {
  fed::Federation federation;
  std::unique_ptr<fed::FederationGateway> gateway;
};

}  // namespace

RunResult run_fed_scatter(const RunArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const std::size_t clients = nproc();

  // --- set-up, repeated; the last federation is kept ------------------------
  std::unique_ptr<Bringup> up;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    up.reset();
    setup.start();
    fed::FederationOptions options;
    options.profile = synth::anzhi();
    options.config = store_config(args.seed, nullptr);
    options.shards = kShards;
    options.policy = lifted_policy();
    options.day = kEndOfHistory;
    fed::Federation federation = [&] {
      const auto span = tracer.span("synth.generate");
      return fed::build_federation(options);
    }();
    auto gateway = std::make_unique<fed::FederationGateway>(fed::GatewayOptions{});
    federation.attach(*gateway);
    up = std::make_unique<Bringup>(Bringup{std::move(federation), std::move(gateway)});
    setup.stop();
  }
  setup.report(result);
  const std::vector<Span> setup_spans = tracer.spans();
  tracer.clear();
  fed::FederationGateway& gateway = *up->gateway;
  const market::AppStore& replica = *up->federation.stores.front().store;

  std::vector<std::uint32_t> apps;
  for (const auto& app : replica.apps()) apps.push_back(app.id.value);
  const StoreShape shape{.app_ids = apps,
                         .category_count = static_cast<std::uint32_t>(replica.categories().size()),
                         .user_count = replica.user_count(),
                         .per_page = 100,
                         .last_day = synth::anzhi().crawl_days};

  auto respond = [&](const Op& op) {
    net::HttpRequest request;
    request.target = op.target;
    const bool query = op.endpoint == Endpoint::kQuery;
    const auto span = tracer.span(query ? "fed.respond_query" : "fed.respond_read");
    return gateway.respond(request).status == 200;
  };

  // --- open loop ---------------------------------------------------------------
  const double open_s = args.seconds;
  const auto ops = build_open_loop(args.seed, shape, clients, kOfferedRateHz, open_s);
  auto due = due_times(ops);
  // The last client is a ticker: it reads the process CPU time at each
  // window boundary. A traced run traces every other window, so the tracing
  // overhead is measured against untraced windows of the same run.
  due.push_back(evenly_spaced(kCpuWindows, open_s));
  std::vector<double> cpu_at_tick;
  tracer.set_enabled(false);
  DeltaSet shard_delta;
  for (const auto& service : up->federation.services) {
    shard_delta.pairs.push_back({service->metrics().snapshot(), {}});
  }
  const fed::GatewayStats stats_before = gateway.stats();
  auto samples = drive(due, [&](std::size_t client, std::size_t index) {
    if (client == clients) {
      cpu_at_tick.push_back(process_cpu_s());
      tracer.set_enabled(args.trace && cpu_at_tick.size() % 2 == 1);
      return true;
    }
    return respond(ops[client][index]);
  });
  tracer.set_enabled(false);
  samples.pop_back();  // the ticker's
  const fed::GatewayStats stats = gateway.stats();
  for (std::size_t s = 0; s < up->federation.services.size(); ++s) {
    shard_delta.pairs[s].after = up->federation.services[s]->metrics().snapshot();
  }
  const std::vector<Span> open_spans = tracer.spans();
  tracer.clear();
  account(result, samples);
  put_interval_cpu(result, cpu_at_tick, args.trace);

  auto is_query = [&](std::size_t c, std::size_t i) {
    return ops[c][i].endpoint == Endpoint::kQuery;
  };
  auto is_read = [&](std::size_t c, std::size_t i) { return !is_query(c, i); };
  // Reported, not gated: on a shared virtual host the latencies of sub-ms
  // requests follow the host's contention more than the program's (see
  // NOTES.md).
  put_windowed_latency(result.detail, "read", samples, is_read, kLatencyWindows,
                       static_cast<std::int64_t>(open_s * 1e9));
  put_latency(result.detail, "query", latencies_ms(samples, is_query));
  const double lateness = lateness_p99_ms(samples);
  result.detail["load.lateness_p99_ms"] = Metric{lateness, "ms", result.attempted};
  result.detail["offered_rps"] = Metric{kOfferedRateHz, "req/s", result.attempted};

  // Before the reference store of the checks below is built.
  result.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb(), "MiB", 1};

  // --- checks -------------------------------------------------------------------
  const fed::GatewayStats total = gateway.stats();
  result.check(total.requests == total.ok + total.http_4xx + total.http_5xx + total.transport +
                                     total.breaker_open + total.shed,
               "fed_scatter: gateway outcome accounting is total");
  result.check(total.requests == result.attempted && total.ok == result.attempted &&
                   result.failed == 0,
               "fed_scatter: every request answered 2xx (" + std::to_string(result.failed) +
                   " of " + std::to_string(result.attempted) + " failed)");
  {
    // The reference: one unsharded store, built after the timed phase.
    const synth::GeneratedStore single = synth::generate(synth::anzhi(), store_config(args.seed, nullptr));
    const query::QueryEngine engine(*single.store);
    const std::vector<std::string> targets = query_check_targets();
    std::size_t mismatches = 0;
    for (const std::string& target : targets) {
      net::HttpRequest request;
      request.target = target;
      const net::HttpResponse answered = gateway.respond(request);
      const std::string expected =
          crawlersim::query_result_json(
              engine.run(crawlersim::parse_query_request(request), kEndOfHistory), kEndOfHistory)
              .dump();
      if (answered.status != 200 || answer_of(answered.body) != answer_of(expected)) ++mismatches;
    }
    result.check(mismatches == 0, "fed_scatter: " + std::to_string(mismatches) + " of " +
                                      std::to_string(targets.size()) +
                                      " gateway query answers differ from a single-store engine");
  }

  // --- per-layer --------------------------------------------------------------
  if (args.trace) {
    auto& layer = result.per_layer;
    layer["synth.generate_s"] = Metric{span_median(setup_spans, "synth.generate", 1e-9), "s",
                                       durations_ns(setup_spans, "synth.generate").size()};
    layer["fed.respond_read_us"] = Metric{self_median(open_spans, "fed.respond_read", 1e-3), "us",
                                          durations_ns(open_spans, "fed.respond_read").size()};
    layer["fed.respond_query_us"] =
        Metric{self_median(open_spans, "fed.respond_query", 1e-3), "us",
               durations_ns(open_spans, "fed.respond_query").size()};
    const double requests = static_cast<double>(stats.requests - stats_before.requests);
    const double upstream = static_cast<double>(stats.upstream_calls - stats_before.upstream_calls);
    const double hedges = static_cast<double>(stats.hedges - stats_before.hedges);
    const double wins = static_cast<double>(stats.hedge_wins - stats_before.hedge_wins);
    layer["fed.upstream_calls_per_request"] =
        Metric{requests > 0 ? upstream / requests : 0.0, "ratio",
               static_cast<std::uint64_t>(requests)};
    layer["fed.hedge_share"] =
        Metric{upstream > 0 ? hedges / upstream : 0.0, "ratio", static_cast<std::uint64_t>(upstream)};
    layer["fed.hedge_win_ratio"] =
        Metric{hedges > 0 ? wins / hedges : 0.0, "ratio", static_cast<std::uint64_t>(hedges)};
    put_service_layers(layer, shard_delta, kShards);
    layer["load.lateness_p99_ms"] = Metric{lateness, "ms", result.attempted};
    layer["trace.spans"] =
        Metric{static_cast<double>(open_spans.size() + setup_spans.size()), "count", 1};
  }

  result.setting("profile", "anzhi");
  result.setting("app_scale", "0.01");
  result.setting("download_scale", "5e-05");
  result.setting("shards", std::to_string(kShards) + " (user-sharded, build_federation)");
  result.setting("gateway", "GatewayOptions defaults: hedging on (derived delay, q=0.95), "
                            "sequential scatter (fanout_threads=0)");
  result.setting("client_threads", std::to_string(clients) + " in-process");
  result.setting("offered_rate", std::to_string(static_cast<int>(kOfferedRateHz)) +
                                     " req/s Poisson (open loop, " + std::to_string(open_s) +
                                     " s)");
  result.setting("token_buckets", "lifted on every shard (rate=burst=1e12)");
  return result;
}

}  // namespace perfbench

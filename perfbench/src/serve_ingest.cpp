// serve_ingest: reads and queries over loopback sockets while one writer
// ingests. A DurableStore (fsync on) is built from the generated store's
// early days, checkpointed, closed and reopened; AppstoreService serves it
// with policy.durable set. Independent clients send an /api/v1 mix on
// Poisson arrivals over nproc keep-alive connections while the writer
// ingests the remaining days' download and comment events on a fixed
// due-time schedule and advances the day (a checkpoint) at each boundary.
// Every publish invalidates the response cache, so this workload exercises
// the query kernels, WAL group commit, live append and the checkpoint pause.
// The gated work figure is the process CPU time of one ingested day: the
// reads and queries offered in its interval, its batches and its
// checkpoint.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "events/event_log.hpp"
#include "host.hpp"
#include "market/durable.hpp"
#include "net/server.hpp"
#include "query/engine.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "workload_common.hpp"

namespace perfbench {

namespace {

using namespace appstore;

/// Days <= kSplitDay are in the prepared store; later days are ingested.
constexpr market::Day kSplitDay = 29;
constexpr std::size_t kDownloadBatchesPerDay = 4;
/// Offered open-loop rate of reads + queries (all clients together).
constexpr double kOfferedRateHz = 1000.0;
/// Latency percentiles are medians over this many windows of the open loop.
constexpr std::size_t kLatencyWindows = 12;

/// One writer operation: an ingest batch, or the day advance after a day's
/// last batch.
struct WriterOp {
  enum class Kind { kDownloads, kComments, kAdvance } kind = Kind::kDownloads;
  market::Day day = 0;
  events::EventLog batch{events::Columns::kDay};
};

/// Splits the generated store's events into the prepared part (days <=
/// kSplitDay, one batch per kind: set-up stays short and has few fsyncs)
/// and the writer's schedule (per later day: download batches, a comment
/// batch, then the day advance).
struct EventPlan {
  market::Day last_day = 0;
  std::vector<WriterOp> prepared;
  std::vector<WriterOp> writer;
  std::uint64_t writer_rows = 0;
  std::uint64_t writer_batches = 0;
};

EventPlan plan_events(const market::AppStore& store) {
  const auto downloads = store.download_log();
  const auto comments = store.comment_log();
  EventPlan plan;
  for (const market::Day day : downloads.day()) plan.last_day = std::max(plan.last_day, day);
  for (const market::Day day : comments.day()) plan.last_day = std::max(plan.last_day, day);
  // Bucket 0 holds every day <= kSplitDay; bucket b > 0 is day kSplitDay + b.
  auto bucket = [](market::Day day) {
    return static_cast<std::size_t>(std::max(day - kSplitDay, 0));
  };
  const std::size_t buckets = bucket(plan.last_day) + 1;
  std::vector<std::vector<std::size_t>> download_rows(buckets);
  std::vector<std::vector<std::size_t>> comment_rows(buckets);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    download_rows[bucket(downloads.day()[i])].push_back(i);
  }
  for (std::size_t i = 0; i < comments.size(); ++i) {
    comment_rows[bucket(comments.day()[i])].push_back(i);
  }
  auto download_batch = [&](const std::vector<std::size_t>& rows, std::size_t lo,
                            std::size_t hi) {
    WriterOp op;
    op.batch = events::EventLog(events::Columns::kDay);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t i = rows[k];
      op.batch.append(downloads.user()[i], downloads.app()[i], downloads.day()[i]);
    }
    return op;
  };
  for (std::size_t d = 0; d < buckets; ++d) {
    const auto day = kSplitDay + static_cast<market::Day>(d);
    const bool early = d == 0;
    const std::size_t pieces = early ? 1 : kDownloadBatchesPerDay;
    const auto& rows = download_rows[d];
    for (std::size_t p = 0; p < pieces; ++p) {
      WriterOp op = download_batch(rows, rows.size() * p / pieces, rows.size() * (p + 1) / pieces);
      op.kind = WriterOp::Kind::kDownloads;
      op.day = day;
      (early ? plan.prepared : plan.writer).push_back(std::move(op));
    }
    WriterOp comment;
    comment.kind = WriterOp::Kind::kComments;
    comment.day = day;
    comment.batch = events::EventLog(events::Columns::kDay | events::Columns::kRating);
    for (const std::size_t i : comment_rows[d]) {
      comment.batch.append(comments.user()[i], comments.app()[i], comments.day()[i], 0,
                           comments.rating()[i]);
    }
    (early ? plan.prepared : plan.writer).push_back(std::move(comment));
    if (!early) {
      WriterOp advance;
      advance.kind = WriterOp::Kind::kAdvance;
      advance.day = day;
      plan.writer.push_back(std::move(advance));
    }
  }
  for (const WriterOp& op : plan.writer) {
    if (op.kind == WriterOp::Kind::kAdvance || op.batch.empty()) continue;
    plan.writer_rows += op.batch.size();
    ++plan.writer_batches;
  }
  return plan;
}

/// Mirrors the generated store's entities into the durable store.
void mirror_entities(const market::AppStore& source, market::DurableStore& durable) {
  for (const auto& category : source.categories()) (void)durable.add_category(category.name);
  for (const auto& developer : source.developers()) (void)durable.add_developer(developer.name);
  (void)durable.add_users(source.user_count());
  for (const auto& app : source.apps()) {
    (void)durable.add_app(app.name, app.developer, app.category, app.pricing, app.price,
                          app.released);
    if (app.has_ads) durable.set_has_ads(app.id, true);
  }
  for (const auto& update : source.update_events()) durable.record_update(update.app, update.day);
}

void apply(market::DurableStore& durable, const WriterOp& op) {
  if (op.batch.empty()) return;
  if (op.kind == WriterOp::Kind::kDownloads) durable.ingest_downloads(op.batch);
  if (op.kind == WriterOp::Kind::kComments) durable.ingest_comments(op.batch);
}

/// Per-log digest: row count and every column of both event logs.
std::uint64_t store_digest(const market::AppStore& store) {
  const auto downloads = store.download_log();
  const auto comments = store.comment_log();
  std::uint64_t hash = fnv1a(nullptr, 0);
  auto mix = [&hash](auto span) { hash = fnv1a(span.data(), span.size_bytes(), hash); };
  const std::uint64_t counts[2] = {downloads.size(), comments.size()};
  hash = fnv1a(counts, sizeof counts, hash);
  mix(downloads.user());
  mix(downloads.app());
  mix(downloads.day());
  mix(comments.user());
  mix(comments.app());
  mix(comments.day());
  mix(comments.rating());
  return hash;
}

market::DurableOptions durable_options(obs::Registry* metrics) {
  market::DurableOptions options;
  options.fsync = true;
  options.metrics = metrics;
  options.live.metrics = metrics;
  options.live.max_rows = 1ull << 22;
  return options;
}

}  // namespace

RunResult run_serve_ingest(const RunArgs& args) {
  RunResult result;
  Tracer tracer(args.trace);
  const std::size_t clients = nproc();

  // --- set-up, repeated; the last durable store is kept ---------------------
  obs::Registry synth_metrics;
  obs::Registry durable_metrics;
  std::unique_ptr<synth::GeneratedStore> generated;
  std::unique_ptr<market::DurableStore> durable;
  EventPlan plan;
  std::filesystem::path directory;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    durable.reset();
    generated.reset();
    if (!directory.empty()) std::filesystem::remove_all(directory);
    directory = args.work_dir / ("serve_ingest-" + std::to_string(rep));
    std::filesystem::remove_all(directory);
    setup.start();
    {
      const auto span = tracer.span("synth.generate");
      generated = std::make_unique<synth::GeneratedStore>(synth::generate(
          synth::anzhi(), store_config(args.seed, rep == 0 ? &synth_metrics : nullptr)));
    }
    plan = plan_events(*generated->store);
    {
      market::DurableStore prepared(directory, generated->store->name(), durable_options(nullptr));
      (void)prepared.open();
      mirror_entities(*generated->store, prepared);
      for (const WriterOp& op : plan.prepared) apply(prepared, op);
      (void)prepared.checkpoint();
      prepared.close();
    }
    durable = std::make_unique<market::DurableStore>(directory, generated->store->name(),
                                                     durable_options(&durable_metrics));
    {
      const auto span = tracer.span("market.open");
      (void)durable->open();
    }
    setup.stop();
  }
  setup.report(result);
  const std::vector<Span> setup_spans = tracer.spans();
  tracer.clear();

  const market::AppStore& source = *generated->store;
  crawlersim::ServicePolicy policy = lifted_policy();
  policy.durable = durable.get();
  auto service = std::make_unique<crawlersim::AppstoreService>(durable->store(), policy);
  service->set_day(kSplitDay);

  // Detail targets: the apps already released on the day serving starts.
  std::vector<std::uint32_t> released;
  for (const auto& app : source.apps()) {
    if (app.released <= kSplitDay) released.push_back(app.id.value);
  }
  const StoreShape shape{.app_ids = released,
                         .category_count = static_cast<std::uint32_t>(source.categories().size()),
                         .user_count = source.user_count(),
                         .per_page = 100,
                         .last_day = plan.last_day};

  // --- open loop: clients + writer ------------------------------------------
  const double open_s = args.seconds;
  const auto ops = build_open_loop(args.seed, shape, clients, kOfferedRateHz, open_s);
  auto due = due_times(ops);
  due.push_back(evenly_spaced(plan.writer.size(), open_s));  // the writer, last client
  const std::size_t writer = clients;

  std::vector<std::unique_ptr<net::PersistentHttpClient>> connections;
  for (std::size_t c = 0; c < clients; ++c) {
    connections.push_back(std::make_unique<net::PersistentHttpClient>("127.0.0.1", service->port()));
  }
  std::vector<std::vector<int>> statuses(clients);
  for (std::size_t c = 0; c < clients; ++c) statuses[c].assign(ops[c].size(), 0);

  // Process CPU seconds at the end of each day advance: day k's cost is the
  // difference between advances k-1 and k. A traced run traces every other
  // day, so the tracing overhead is measured against untraced days of the
  // same run.
  std::vector<double> cpu_at_advance;
  tracer.set_enabled(false);
  const obs::Snapshot service_before = service->metrics().snapshot();
  const obs::Snapshot durable_before = durable_metrics.snapshot();
  const std::uint64_t written_before = proc_write_bytes();
  const auto samples = drive(due, [&](std::size_t client, std::size_t index) {
    if (client == writer) {
      const WriterOp& op = plan.writer[index];
      if (op.kind == WriterOp::Kind::kAdvance) {
        {
          const auto span = tracer.span("market.checkpoint");
          service->set_day(op.day);
        }
        cpu_at_advance.push_back(process_cpu_s());
        tracer.set_enabled(args.trace && cpu_at_advance.size() % 2 == 1);
      } else {
        const auto span = tracer.span("market.ingest");
        apply(*durable, op);
      }
      return true;
    }
    const auto span = tracer.span("service.request");
    const net::HttpResponse response = connections[client]->get(ops[client][index].target);
    statuses[client][index] = response.status;
    return response.status == 200;
  });
  tracer.set_enabled(false);
  const std::uint64_t written = proc_write_bytes() - written_before;
  const DeltaSet service_delta{{{service_before, service->metrics().snapshot()}}};
  const DeltaSet durable_delta{{{durable_before, durable_metrics.snapshot()}}};
  const std::vector<Span> open_spans = tracer.spans();
  tracer.clear();
  account(result, samples);
  put_interval_cpu(result, cpu_at_advance, args.trace);

  auto is_query = [&](std::size_t c, std::size_t i) {
    return c < clients && ops[c][i].endpoint == Endpoint::kQuery;
  };
  auto is_read = [&](std::size_t c, std::size_t i) {
    return c < clients && ops[c][i].endpoint != Endpoint::kQuery;
  };
  auto is_commit = [&](std::size_t c, std::size_t i) {
    return c == writer && plan.writer[i].kind != WriterOp::Kind::kAdvance;
  };
  const auto reads = latencies_ms(samples, is_read);
  // Reported, not gated: on a shared virtual host the latencies of sub-ms
  // requests follow the host's contention more than the program's (see
  // NOTES.md).
  put_windowed_latency(result.detail, "read", samples, is_read, kLatencyWindows,
                       static_cast<std::int64_t>(open_s * 1e9));
  put_latency(result.detail, "query", latencies_ms(samples, is_query));
  put_latency(result.detail, "commit", latencies_ms(samples, is_commit));
  result.detail["offered_rps"] = Metric{kOfferedRateHz, "req/s", reads.size()};
  const double lateness = lateness_p99_ms(samples);
  result.detail["load.lateness_p99_ms"] =
      Metric{lateness, "ms", static_cast<std::uint64_t>(result.attempted)};

  std::uint64_t http_4xx = 0;
  for (const auto& client : statuses) {
    for (const int status : client) http_4xx += (status >= 400 && status < 500) ? 1 : 0;
  }
  std::uint64_t opened = 0;
  for (const auto& connection : connections) opened += connection->connections_opened();
  std::uint64_t scheduled = plan.writer.size();
  for (const auto& client : ops) scheduled += client.size();
  result.check(result.attempted == scheduled,
               "serve_ingest: every scheduled operation ran and has exactly one outcome");
  result.check(http_4xx == 0, "serve_ingest: no 4xx responses");
  result.check(durable_delta.counter("wal_commits_total") == plan.writer_batches,
               "serve_ingest: wal_commits_total equals the scheduled non-empty batches");
  result.check(durable_delta.counter("live_events_appended_total") == plan.writer_rows,
               "serve_ingest: live_events_appended_total equals the scheduled rows");
  result.check(service_delta.counter("http_accepted_total") == opened,
               "serve_ingest: http_accepted_total equals the connections opened");

  // --- checks with ingest quiet ---------------------------------------------
  result.check(result.failed == 0, "serve_ingest: every operation succeeded (" +
                                       std::to_string(result.failed) + " of " +
                                       std::to_string(result.attempted) + " failed)");
  const market::Day day = service->day();
  result.check(day == plan.last_day, "serve_ingest: the writer advanced to the last day");
  {
    const query::QueryEngine engine(durable->store(), policy.query);
    const std::vector<std::string> targets = query_check_targets();
    std::size_t mismatches = 0;
    for (const std::string& target : targets) {
      net::HttpRequest request;
      request.target = target;
      const net::HttpResponse served = connections[0]->get(target);
      const std::string expected =
          crawlersim::query_result_json(engine.run(crawlersim::parse_query_request(request), day),
                                        day)
              .dump();
      if (served.status != 200 || served.body != expected) ++mismatches;
    }
    result.check(mismatches == 0, "serve_ingest: " + std::to_string(mismatches) + " of " +
                                      std::to_string(targets.size()) +
                                      " socket query answers differ from QueryEngine::run");
  }
  const std::uint64_t digest = store_digest(durable->store());
  const std::uint64_t rows =
      durable->store().download_log().size() + durable->store().comment_log().size();
  connections.clear();
  service->stop();
  service.reset();
  durable->close();
  durable.reset();
  {
    market::DurableStore reopened(directory, source.name(), durable_options(nullptr));
    (void)reopened.open();
    result.check(store_digest(reopened.store()) == digest,
                 "serve_ingest: the reopened store's per-log digest matches (acknowledged batches "
                 "survived)");
    result.check(rows == source.download_log().size() + source.comment_log().size(),
                 "serve_ingest: every generated event was ingested");
    reopened.close();
  }
  std::filesystem::remove_all(directory);

  // --- per-layer --------------------------------------------------------------
  if (args.trace) {
    auto& layer = result.per_layer;
    layer["synth.generate_s"] = Metric{span_median(setup_spans, "synth.generate", 1e-9), "s",
                                       durations_ns(setup_spans, "synth.generate").size()};
    layer["market.open_s"] = Metric{span_median(setup_spans, "market.open", 1e-9), "s",
                                    durations_ns(setup_spans, "market.open").size()};
    layer["market.ingest_us"] = Metric{self_median(open_spans, "market.ingest", 1e-3), "us",
                                       durations_ns(open_spans, "market.ingest").size()};
    std::vector<double> waits;
    for (std::size_t i = 0; i < samples[writer].size(); ++i) {
      if (is_commit(writer, i)) waits.push_back(static_cast<double>(samples[writer][i].lateness_ns()) / 1e3);
    }
    layer["market.ingest_wait_us"] = Metric{median(waits), "us", waits.size()};
    const auto checkpoints = durations_ns(open_spans, "market.checkpoint");
    layer["market.checkpoint_ms"] = Metric{median(checkpoints) / 1e6, "ms", checkpoints.size()};
    layer["market.checkpoint_max_ms"] =
        Metric{checkpoints.empty() ? 0.0 : *std::max_element(checkpoints.begin(), checkpoints.end()) / 1e6,
               "ms", checkpoints.size()};
    layer["market.write_bytes_per_row"] =
        Metric{static_cast<double>(written) / static_cast<double>(std::max<std::uint64_t>(1, plan.writer_rows)),
               "B/row", plan.writer_rows};
    layer["events.wal_commits"] =
        Metric{static_cast<double>(durable_delta.counter("wal_commits_total")), "count", 1};
    layer["events.rows_appended"] =
        Metric{static_cast<double>(durable_delta.counter("live_events_appended_total")), "count", 1};
    put_net_layers(layer, service_delta, result.attempted);
    put_service_layers(layer, service_delta, 1);
    const obs::Snapshot synth_snapshot = synth_metrics.snapshot();
    const auto* synth_tasks = synth_snapshot.find_counter("par_tasks_total");
    layer["par.tasks"] =
        Metric{static_cast<double>(synth_tasks != nullptr ? synth_tasks->value : 0), "count", 1};
    layer["load.lateness_p99_ms"] = Metric{lateness, "ms", result.attempted};
    layer["trace.spans"] = Metric{static_cast<double>(open_spans.size() + setup_spans.size()), "count", 1};
  }

  result.setting("profile", "anzhi");
  result.setting("app_scale", "0.01");
  result.setting("download_scale", "5e-05");
  result.setting("apps", std::to_string(source.apps().size()) + " (" + std::to_string(released.size()) + " released by day " + std::to_string(kSplitDay) + " are detail targets)");
  result.setting("users", std::to_string(shape.user_count));
  result.setting("fsync", "on (DurableOptions::fsync)");
  result.setting("prepared_days", "-1.." + std::to_string(kSplitDay));
  result.setting("ingested_days", std::to_string(kSplitDay + 1) + ".." + std::to_string(plan.last_day));
  result.setting("writer", "1 thread; " + std::to_string(kDownloadBatchesPerDay) +
                               " download batches + 1 comment batch per day, then set_day "
                               "(checkpoint); due times evenly spaced over the open loop");
  result.setting("client_connections", std::to_string(clients) + " keep-alive");
  result.setting("offered_rate", std::to_string(static_cast<int>(kOfferedRateHz)) +
                                     " req/s Poisson (open loop, " +
                                     std::to_string(open_s) + " s)");
  result.setting("server_workers", "ServerOptions default");
  result.setting("token_buckets", "lifted (rate=burst=1e12): the benchmark measures the program, "
                                  "not the per-client rate limit");
  result.end_to_end["peak_rss_mb"] = Metric{peak_rss_mb(), "MiB", 1};
  return result;
}

}  // namespace perfbench

#include "crawler/service.hpp"

#include <algorithm>

#include "crawler/apk.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace appstore::crawlersim {

namespace {

constexpr std::size_t kMaxPerPage = 500;

/// Bound on cached responses: /api/v1/meta plus directory pages plus distinct
/// query targets — a handful per day in practice; the cap only guards
/// against a pathological client enumerating distinct targets.
constexpr std::size_t kMaxCachedResponses = 4096;

constexpr std::string_view kV1Prefix = "/api/v1";

/// The route table: path remainder (after /api/v1) -> endpoint.
/// Prefix routes match any path continuing past the pattern; /app/<id>
/// sub-routes (comments, apk) are refined by suffix below.
struct Route {
  std::string_view pattern;
  bool exact;
  AppstoreService::Endpoint endpoint;
};

constexpr Route kRoutes[] = {
    {"/meta", true, AppstoreService::Endpoint::kMeta},
    {"/apps", true, AppstoreService::Endpoint::kApps},
    {"/app/", false, AppstoreService::Endpoint::kApp},
    {"/query", true, AppstoreService::Endpoint::kQuery},
    {"/metrics", true, AppstoreService::Endpoint::kMetrics},
};

[[nodiscard]] std::string client_of(const net::HttpRequest& request) {
  const auto it = request.headers.find("X-Client-Id");
  return it == request.headers.end() ? std::string("anonymous") : it->second;
}

[[nodiscard]] bool is_china_client(std::string_view client) {
  // Proxy ids are "proxy-<region>-<n>".
  return client.find("-cn-") != std::string_view::npos;
}

[[nodiscard]] std::string_view reason_for(int status) noexcept {
  switch (status) {
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// The uniform error envelope every non-200 response carries:
/// {"error": {"code", "message", "retry_after_ms"?}}.
[[nodiscard]] net::HttpResponse error_response(int status, std::string_view code,
                                               std::string_view message,
                                               std::int64_t retry_after_ms = -1) {
  // Assigned from initializer lists, not grown by emplace_back: growing this
  // vector trips a false -Wmaybe-uninitialized in GCC 12's variant move.
  JsonObject error = {{"code", Json(code)}, {"message", Json(message)}};
  if (retry_after_ms >= 0) {
    error = {{"code", Json(code)},
             {"message", Json(message)},
             {"retry_after_ms", Json(retry_after_ms)}};
  }
  net::HttpResponse response = net::HttpResponse::json(
      status, json_object({{"error", Json(std::move(error))}}).dump());
  response.reason = std::string(reason_for(status));
  if (retry_after_ms >= 0) {
    response.headers["Retry-After"] =
        std::to_string(std::max<std::int64_t>(1, (retry_after_ms + 999) / 1000));
  }
  return response;
}

}  // namespace

std::string_view to_string(AppstoreService::Endpoint endpoint) noexcept {
  switch (endpoint) {
    case AppstoreService::Endpoint::kMeta: return "meta";
    case AppstoreService::Endpoint::kApps: return "apps";
    case AppstoreService::Endpoint::kApp: return "app";
    case AppstoreService::Endpoint::kComments: return "comments";
    case AppstoreService::Endpoint::kApk: return "apk";
    case AppstoreService::Endpoint::kQuery: return "query";
    case AppstoreService::Endpoint::kMetrics: return "metrics";
    case AppstoreService::Endpoint::kOther: return "other";
  }
  return "?";
}

AppstoreService::RouteMatch AppstoreService::route(std::string_view path) noexcept {
  RouteMatch match;
  if (!path.starts_with(kV1Prefix)) return match;
  const std::string_view rest = path.substr(kV1Prefix.size());
  for (const Route& entry : kRoutes) {
    const bool hit = entry.exact ? rest == entry.pattern : rest.starts_with(entry.pattern);
    if (!hit) continue;
    match.endpoint = entry.endpoint;
    match.rest = rest.substr(entry.pattern.size());
    if (entry.endpoint == Endpoint::kApp) {
      if (match.rest.ends_with("/comments")) {
        match.endpoint = Endpoint::kComments;
        match.rest.remove_suffix(std::string_view("/comments").size());
      } else if (match.rest.ends_with("/apk")) {
        match.endpoint = Endpoint::kApk;
        match.rest.remove_suffix(std::string_view("/apk").size());
      }
    }
    return match;
  }
  return match;
}

AppstoreService::AppstoreService(const market::AppStore& store, ServicePolicy policy,
                                 std::uint16_t port, net::TokenBucketLimiter::Clock clock)
    : store_(store),
      policy_(policy),
      limiter_(policy.rate_per_second, policy.burst, std::move(clock)),
      failure_state_(policy.failure_seed) {
  registry_.describe("service_requests_total", "Requests by endpoint class");
  registry_.describe("service_request_seconds", "Handler latency by endpoint class");
  registry_.describe("service_injected_failures_total", "Injected 500 responses");
  registry_.describe("service_region_blocked_total", "403 responses (region gating)");
  registry_.describe("service_response_cache_total",
                     "Per-day response cache lookups by outcome");
  for (std::size_t i = 0; i < kEndpointCount; ++i) {
    const std::string_view label = to_string(static_cast<Endpoint>(i));
    endpoint_requests_[i] = &registry_.counter("service_requests_total", label);
    endpoint_latency_[i] = &registry_.histogram("service_request_seconds", label);
  }
  injected_failures_ = &registry_.counter("service_injected_failures_total");
  region_blocked_ = &registry_.counter("service_region_blocked_total");
  cache_hits_ = &registry_.counter("service_response_cache_total", "hit");
  cache_misses_ = &registry_.counter("service_response_cache_total", "miss");
  limiter_.attach_metrics(registry_);

  query_engine_ = std::make_unique<query::QueryEngine>(store_, policy_.query, &registry_);

  derived_.download_days.resize(store_.apps().size());
  derived_.comment_index.resize(store_.apps().size());
  refresh_derived();

  net::ServerOptions server_options;
  server_options.port = port;
  server_options.metrics = &registry_;
  server_options.clock = policy_.clock;
  server_options.faults = policy_.faults;
  server_options.worker_threads = policy_.server_workers;
  server_options.queue_capacity = policy_.server_queue_capacity;
  server_options.max_connections = policy_.max_connections;
  server_options.admission = policy_.admission;
  // The load-shed 503 is written below the handler; give it the same error
  // envelope every in-handler error uses.
  server_options.shed_body =
      error_response(503, "overloaded", "server busy", 1000).body;
  server_options.shed_content_type = "application/json";
  server_ = std::make_unique<net::HttpServer>(
      server_options, [this](const net::HttpRequest& request) { return handle(request); });
}

void AppstoreService::refresh_derived() const {
  const events::FrontierSnapshot downloads = store_.download_log();
  const events::FrontierSnapshot comments = store_.comment_log();
  {
    const std::shared_lock lock(derived_mutex_);
    if (derived_.download_rows == downloads.size() &&
        derived_.comment_rows == comments.size()) {
      return;
    }
  }
  const std::unique_lock lock(derived_mutex_);
  // Absorb only the rows past the watermarks. Live ingestion appends in
  // (roughly) day order, so the common insert position is the back of the
  // per-app vector; out-of-order days fall back to a sorted insert.
  for (std::uint64_t i = derived_.download_rows; i < downloads.size(); ++i) {
    auto& days = derived_.download_days[downloads.app()[i]];
    const market::Day day = downloads.day()[i];
    if (days.empty() || day >= days.back()) {
      days.push_back(day);
    } else {
      days.insert(std::upper_bound(days.begin(), days.end(), day), day);
    }
  }
  derived_.download_rows = downloads.size();
  for (std::uint64_t i = derived_.comment_rows; i < comments.size(); ++i) {
    derived_.comment_index[comments.app()[i]].push_back(static_cast<std::uint32_t>(i));
  }
  derived_.comment_rows = comments.size();
}

std::uint64_t AppstoreService::downloads_up_to(std::uint32_t app, market::Day day) const {
  const std::shared_lock lock(derived_mutex_);
  const auto& days = derived_.download_days[app];
  return static_cast<std::uint64_t>(
      std::upper_bound(days.begin(), days.end(), day) - days.begin());
}

std::uint32_t AppstoreService::version_up_to(std::uint32_t app, market::Day day) const {
  const auto& updates = store_.apps()[app].update_days;
  return 1 + static_cast<std::uint32_t>(
                 std::upper_bound(updates.begin(), updates.end(), day) - updates.begin());
}

net::HttpResponse AppstoreService::handle(const net::HttpRequest& request) {
  const std::string path = request.path();
  const RouteMatch match = route(path);
  const auto slot = static_cast<std::size_t>(match.endpoint);
  endpoint_requests_[slot]->inc();
  const obs::ScopedTimer timer(endpoint_latency_[slot]);

  // The metrics endpoint is operational, not part of the simulated store: it
  // bypasses region gating, rate limiting and failure injection so a scrape
  // can never be throttled by (or perturb) the workload under study.
  if (match.endpoint == Endpoint::kMetrics) return handle_metrics(request);

  ServiceRequest context;
  context.http = &request;
  context.endpoint = match.endpoint;
  context.rest = match.rest;
  context.day = day_.load(std::memory_order_relaxed);
  context.client = client_of(request);

  if (policy_.china_only && !is_china_client(context.client)) {
    region_blocked_->inc();
    return error_response(403, "region_blocked", "store not served in this region");
  }
  if (!limiter_.allow(context.client)) {
    const auto retry_ms = static_cast<std::int64_t>(
        std::max(1.0, 1000.0 / std::max(policy_.rate_per_second, 1e-9)));
    return error_response(429, "rate_limited", "per-client rate limit exceeded",
                          retry_ms);
  }
  if (policy_.failure_rate > 0.0) {
    // Deterministic per-request failure injection (splitmix64 walk).
    std::uint64_t state = failure_state_.fetch_add(1, std::memory_order_relaxed);
    util::Rng rng(util::splitmix64(state));
    if (rng.chance(policy_.failure_rate)) {
      injected_failures_->inc();
      return error_response(500, "internal", "transient failure (injected)");
    }
  }

  const bool post_allowed = match.endpoint == Endpoint::kQuery;
  if (request.method != "GET" && !(post_allowed && request.method == "POST")) {
    return error_response(405, "method_not_allowed",
                          post_allowed ? "only GET and POST supported"
                                       : "only GET supported");
  }

  switch (match.endpoint) {
    case Endpoint::kMeta:
    case Endpoint::kApps:
    case Endpoint::kQuery: {
      // Cache key: the target minus /api/v1; a POST query is additionally
      // keyed by its body.
      std::string key(std::string_view(request.target).substr(kV1Prefix.size()));
      if (request.method == "POST") {
        key += '\n';
        key += request.body;
      }
      return handle_cacheable(context, std::move(key));
    }
    case Endpoint::kApp:
    case Endpoint::kComments:
    case Endpoint::kApk: {
      // These read the derived per-app layout; catch it up to the
      // published frontiers first (fast no-op when nothing ingested).
      refresh_derived();
      std::uint64_t id = 0;
      if (!util::parse_u64(match.rest, id) || id >= store_.apps().size()) {
        return error_response(404, "not_found", "no such app");
      }
      if (match.endpoint == Endpoint::kComments) {
        return handle_comments(static_cast<std::uint32_t>(id), request);
      }
      if (match.endpoint == Endpoint::kApk) {
        return handle_apk(static_cast<std::uint32_t>(id));
      }
      return handle_app(static_cast<std::uint32_t>(id));
    }
    case Endpoint::kMetrics:
    case Endpoint::kOther:
      break;
  }
  return error_response(404, "not_found", "no such endpoint");
}

void AppstoreService::set_day(market::Day day) {
  // Day boundaries are the durability cadence: checkpoint the closing day
  // before the new one becomes visible, so a crash afterwards recovers at
  // least everything the previous day served. Serving threads are not
  // blocked — the checkpoint reads frontier snapshots.
  if (policy_.durable != nullptr && day > day_.load(std::memory_order_relaxed)) {
    (void)policy_.durable->checkpoint();
  }
  // Publish-only: entries stamped with the old day stop matching, and the
  // next insert for the same key replaces them. Readers are never blocked.
  day_.store(day, std::memory_order_relaxed);
}

net::HttpResponse AppstoreService::handle_cacheable(const ServiceRequest& context,
                                                    std::string key) {
  // These endpoints are pure functions of (target, day, published events) —
  // so identical requests under one (day, ingest epoch) stamp can share one
  // computed response; any publish bumps the epoch and naturally invalidates.
  // The cache sits after the policy gates: rate limiting and region checks
  // are still charged per request.
  const market::Day day = day_.load(std::memory_order_relaxed);
  const std::uint64_t epoch = store_.ingest_epoch();
  if (policy_.cache_responses) {
    const std::shared_lock lock(cache_mutex_);
    const auto it = response_cache_.find(key);
    if (it != response_cache_.end() && it->second.day == day &&
        it->second.epoch == epoch) {
      cache_hits_->inc();
      return it->second.response;
    }
  }
  net::HttpResponse response;
  switch (context.endpoint) {
    case Endpoint::kMeta: response = handle_meta(day); break;
    case Endpoint::kApps: response = handle_apps(*context.http, day); break;
    case Endpoint::kQuery: response = handle_query(context); break;
    default: response = error_response(404, "not_found", "no such endpoint"); break;
  }
  if (policy_.cache_responses) {
    cache_misses_->inc();
    if (response.status == 200) {
      const std::unique_lock lock(cache_mutex_);
      // Re-check both stamps under the writer lock: a set_day or a publish
      // that raced this computation must not get a stale entry cached over
      // it. At capacity every resident entry is from some older stamp or a
      // pathological key sweep — clear and start over.
      if (day_.load(std::memory_order_relaxed) == day && store_.ingest_epoch() == epoch) {
        if (response_cache_.size() >= kMaxCachedResponses) response_cache_.clear();
        response_cache_.insert_or_assign(std::move(key),
                                         CachedResponse{day, epoch, response});
      }
    }
  }
  return response;
}

net::HttpResponse AppstoreService::handle_query(const ServiceRequest& context) const {
  try {
    const QueryRequest request = read_query_request(*context.http);
    // Partial mode (?partial=1 / "partial": true): the mergeable shard
    // fragment a federation gateway recombines (see query/federate.hpp).
    if (request.partial) {
      const query::PartialAggregate partial =
          query_engine_->run_partial(request.spec, context.day);
      return net::HttpResponse::json(200, query_partial_json(partial, context.day).dump());
    }
    const query::QueryResult result = query_engine_->run(request.spec, context.day);
    return net::HttpResponse::json(200, query_result_json(result, context.day).dump());
  } catch (const query::QueryError& error) {
    return error_response(400, error.code(), error.what());
  }
}

net::HttpResponse AppstoreService::handle_metrics(const net::HttpRequest& request) const {
  const auto query = request.query();
  const auto it = query.find("fmt");
  if (it != query.end() && it->second == "text") {
    return net::HttpResponse::text(200, obs::to_text(registry_));
  }
  return net::HttpResponse::json(200, obs::to_json(registry_));
}

net::HttpResponse AppstoreService::handle_meta(market::Day day) const {
  std::uint64_t visible = 0;
  for (const auto& app : store_.apps()) {
    if (app.released <= day) ++visible;
  }
  return net::HttpResponse::json(
      200, json_object({{"store", store_.name()},
                        {"day", static_cast<std::int64_t>(day)},
                        {"total_apps", visible},
                        {"categories", static_cast<std::uint64_t>(store_.categories().size())}})
               .dump());
}

net::HttpResponse AppstoreService::handle_apps(const net::HttpRequest& request,
                                               market::Day day) const {
  const auto query = request.query();
  std::uint64_t page = 0;
  std::uint64_t per_page = 100;
  if (const auto it = query.find("page"); it != query.end()) {
    if (!util::parse_u64(it->second, page)) {
      return error_response(400, "bad_request", "bad page");
    }
  }
  if (const auto it = query.find("per_page"); it != query.end()) {
    if (!util::parse_u64(it->second, per_page) || per_page == 0 || per_page > kMaxPerPage) {
      return error_response(400, "bad_request", "bad per_page");
    }
  }

  // Visible app ids in id order (the directory lists everything released so
  // far; new releases append).
  JsonArray ids;
  std::uint64_t visible = 0;
  const std::uint64_t first = page * per_page;
  for (const auto& app : store_.apps()) {
    if (app.released > day) continue;
    if (visible >= first && visible < first + per_page) {
      ids.push_back(Json(static_cast<std::uint64_t>(app.id.value)));
    }
    ++visible;
  }
  return net::HttpResponse::json(200, json_object({{"page", page},
                                                   {"per_page", per_page},
                                                   {"total", visible},
                                                   {"ids", Json(std::move(ids))}})
                                          .dump());
}

net::HttpResponse AppstoreService::handle_app(std::uint32_t id) const {
  const market::Day day = day_.load(std::memory_order_relaxed);
  const market::App& app = store_.apps()[id];
  if (app.released > day) return error_response(404, "not_found", "not yet released");

  return net::HttpResponse::json(
      200,
      json_object(
          {{"id", static_cast<std::uint64_t>(id)},
           {"name", app.name},
           {"category", store_.category(app.category).name},
           {"developer", store_.developer(app.developer).name},
           {"paid", app.pricing == market::Pricing::kPaid},
           {"price", market::cents_to_dollars(app.price)},
           {"downloads", downloads_up_to(id, day)},
           {"version", static_cast<std::uint64_t>(version_up_to(id, day))},
           {"has_ads", app.has_ads},
           {"released", static_cast<std::int64_t>(app.released)}})
          .dump());
}

net::HttpResponse AppstoreService::handle_apk(std::uint32_t id) const {
  const market::Day day = day_.load(std::memory_order_relaxed);
  const market::App& app = store_.apps()[id];
  if (app.released > day) return error_response(404, "not_found", "not yet released");

  const std::uint32_t version = version_up_to(id, day);
  const auto ad_libraries = select_ad_libraries(id, app.has_ads);
  net::HttpResponse response;
  response.status = 200;
  response.reason = "OK";
  response.headers["Content-Type"] = "application/vnd.android.package-archive";
  response.headers["X-Apk-Version"] = std::to_string(version);
  response.body = build_apk(id, version, ad_libraries);
  return response;
}

net::HttpResponse AppstoreService::handle_comments(std::uint32_t id,
                                                   const net::HttpRequest& request) const {
  const market::Day day = day_.load(std::memory_order_relaxed);
  const auto query = request.query();
  std::uint64_t page = 0;
  const std::uint64_t per_page = 200;
  if (const auto it = query.find("page"); it != query.end()) {
    if (!util::parse_u64(it->second, page)) {
      return error_response(400, "bad_request", "bad page");
    }
  }

  const events::FrontierSnapshot log = store_.comment_log();
  JsonArray comments;
  std::uint64_t visible = 0;
  const std::uint64_t first = page * per_page;
  const std::shared_lock lock(derived_mutex_);
  for (const auto index : derived_.comment_index[id]) {
    // A concurrent refresh may have absorbed rows past this handler's
    // snapshot; stay inside the prefix it pinned.
    if (index >= log.size()) break;
    const events::Event comment = log.row(index);
    if (comment.day > day) continue;
    if (visible >= first && visible < first + per_page) {
      comments.push_back(json_object({{"user", static_cast<std::uint64_t>(comment.user)},
                                      {"day", static_cast<std::int64_t>(comment.day)},
                                      {"ordinal", static_cast<std::uint64_t>(comment.ordinal)},
                                      {"rating", static_cast<std::uint64_t>(comment.rating)}}));
    }
    ++visible;
  }
  return net::HttpResponse::json(200, json_object({{"app", static_cast<std::uint64_t>(id)},
                                                   {"total", visible},
                                                   {"page", page},
                                                   {"comments", Json(std::move(comments))}})
                                          .dump());
}

}  // namespace appstore::crawlersim

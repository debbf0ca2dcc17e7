#include "fed/gateway.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "obs/export.hpp"
#include "query/expression.hpp"
#include "query/federate.hpp"
#include "util/rng.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace appstore::fed {

namespace {

using crawlersim::Json;
using crawlersim::JsonArray;
using crawlersim::JsonObject;

[[nodiscard]] std::string_view reason_for(int status) noexcept {
  switch (status) {
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    default: return "Error";
  }
}

/// The same uniform error envelope the shard services answer with.
[[nodiscard]] net::HttpResponse error_response(int status, std::string_view code,
                                               std::string_view message,
                                               std::int64_t retry_after_ms = -1) {
  JsonObject error;
  error.emplace_back("code", Json(code));
  error.emplace_back("message", Json(message));
  if (retry_after_ms >= 0) error.emplace_back("retry_after_ms", Json(retry_after_ms));
  net::HttpResponse response = net::HttpResponse::json(
      status, crawlersim::json_object({{"error", Json(std::move(error))}}).dump());
  response.reason = std::string(reason_for(status));
  if (retry_after_ms >= 0) {
    response.headers["Retry-After"] =
        std::to_string(std::max<std::int64_t>(1, (retry_after_ms + 999) / 1000));
  }
  return response;
}

/// The original query request plus the partial flag, so a shard answers the
/// mergeable fragment instead of a finalized result.
[[nodiscard]] net::HttpRequest with_partial_flag(const net::HttpRequest& request) {
  net::HttpRequest out = request;
  if (request.method == "POST") {
    const auto document = crawlersim::parse_json(request.body);
    if (document && document->is_object()) {
      JsonObject body = document->as_object();
      body.emplace_back("partial", Json(true));
      out.body = Json(std::move(body)).dump();
    }
    // Malformed bodies are forwarded untouched; the shard answers 400.
  } else {
    out.target += out.target.find('?') == std::string::npos ? "?partial=1" : "&partial=1";
  }
  return out;
}

[[nodiscard]] const char* to_label(std::uint8_t outcome) noexcept {
  switch (outcome) {
    case 0: return "ok";
    case 1: return "http_4xx";
    case 2: return "http_5xx";
    case 3: return "transport";
    case 4: return "breaker_open";
    default: return "shed";
  }
}

[[nodiscard]] net::UpstreamTable::Options table_options(const GatewayOptions& options) {
  net::UpstreamTable::Options table;
  table.breaker = options.breaker;
  if (table.breaker.clock == nullptr) table.breaker.clock = options.clock;
  table.max_keys = options.max_upstream_keys;
  table.clock = options.clock;
  return table;
}

}  // namespace

FederationGateway::FederationGateway(GatewayOptions options)
    : options_(std::move(options)), ring_(options_.ring), breakers_(table_options(options_)) {
  registry_.describe("gateway_requests_total", "Gateway responses by outcome");
  registry_.describe("gateway_upstream_calls_total", "Attempts reaching a shard");
  registry_.describe("gateway_hedges_total", "Hedge attempts: issued, won, cancelled");
}

void FederationGateway::add_upstream(const std::string& id, Call call) {
  const std::unique_lock lock(upstreams_mutex_);
  for (auto& upstream : upstreams_) {
    if (upstream->id == id) {
      upstream->call = std::move(call);
      return;
    }
  }
  auto upstream = std::make_unique<Upstream>();
  upstream->id = id;
  upstream->call = std::move(call);
  net::AdmissionOptions admission = options_.admission;
  if (admission.clock == nullptr) admission.clock = options_.clock;
  upstream->admission = std::make_unique<net::AdmissionController>(admission);
  upstream->latency_ring.assign(Upstream::kReservoirSize, 0);
  upstreams_.push_back(std::move(upstream));
  ring_.add(id);
}

bool FederationGateway::remove_upstream(const std::string& id) {
  const std::unique_lock lock(upstreams_mutex_);
  const auto it = std::find_if(upstreams_.begin(), upstreams_.end(),
                               [&](const auto& upstream) { return upstream->id == id; });
  if (it == upstreams_.end()) return false;
  upstreams_.erase(it);
  ring_.remove(id);
  breakers_.forget(id);
  return true;
}

FederationGateway::Upstream* FederationGateway::find_upstream(const std::string& id) noexcept {
  for (auto& upstream : upstreams_) {
    if (upstream->id == id) return upstream.get();
  }
  return nullptr;
}

GatewayStats FederationGateway::stats() const {
  const std::lock_guard lock(stats_mutex_);
  return stats_;
}

void FederationGateway::count_outcome(Outcome outcome) {
  {
    const std::lock_guard lock(stats_mutex_);
    ++stats_.requests;
    switch (outcome) {
      case Outcome::kOk: ++stats_.ok; break;
      case Outcome::kHttp4xx: ++stats_.http_4xx; break;
      case Outcome::kHttp5xx: ++stats_.http_5xx; break;
      case Outcome::kTransport: ++stats_.transport; break;
      case Outcome::kBreakerOpen: ++stats_.breaker_open; break;
      case Outcome::kShed: ++stats_.shed; break;
    }
  }
  registry_.counter("gateway_requests_total", to_label(static_cast<std::uint8_t>(outcome)))
      .inc();
}

net::HttpResponse FederationGateway::respond(const net::HttpRequest& request) {
  Routed routed;
  {
    const std::shared_lock lock(upstreams_mutex_);
    routed = dispatch(request);
  }
  count_outcome(routed.outcome);
  return std::move(routed.response);
}

FederationGateway::Routed FederationGateway::dispatch(const net::HttpRequest& request) {
  using Service = crawlersim::AppstoreService;
  const std::string path = request.path();
  const Service::RouteMatch match = Service::route(path);

  if (match.endpoint == Service::Endpoint::kMetrics) {
    const auto params = request.query();
    const auto it = params.find("fmt");
    if (it != params.end() && it->second == "text") {
      return classify(net::HttpResponse::text(200, obs::to_text(registry_)));
    }
    return classify(net::HttpResponse::json(200, obs::to_json(registry_)));
  }
  if (upstreams_.empty()) {
    return {error_response(503, "no_upstreams", "no shards registered"), Outcome::kShed};
  }
  switch (match.endpoint) {
    case Service::Endpoint::kMeta:
    case Service::Endpoint::kApk:
      // Replicated data: any one shard answers; hash the target so load
      // spreads across the membership.
      return route_single(request, util::hash64(path));
    case Service::Endpoint::kApps: return route_apps(request);
    case Service::Endpoint::kApp: return route_app(request, match.rest);
    case Service::Endpoint::kComments: return route_comments(request, match.rest);
    case Service::Endpoint::kQuery: return route_query(request);
    case Service::Endpoint::kMetrics:
    case Service::Endpoint::kOther: break;
  }
  return {error_response(404, "not_found", "no such endpoint"), Outcome::kHttp4xx};
}

// ---- upstream calls --------------------------------------------------------

FederationGateway::Attempt FederationGateway::exchange(Upstream& upstream,
                                                       const net::HttpRequest& request) {
  Attempt attempt;
  const auto start = chaos::now_or_real(options_.clock);
  chaos::Fault fault;
  if (options_.faults != nullptr) {
    fault = options_.faults->next(chaos::FaultSite::kExchange, upstream.id);
  }
  switch (fault.kind) {
    case chaos::FaultKind::kConnectRefused:
    case chaos::FaultKind::kConnectionReset:
      attempt.transport = true;
      break;
    case chaos::FaultKind::kHttp429:
      attempt.response = error_response(429, "injected_fault", "injected 429");
      break;
    case chaos::FaultKind::kHttp403:
      attempt.response = error_response(403, "injected_fault", "injected 403");
      break;
    case chaos::FaultKind::kHttp500:
      attempt.response = error_response(500, "injected_fault", "injected 500");
      break;
    case chaos::FaultKind::kLatency:
      chaos::sleep_or_real(options_.clock, fault.latency);
      [[fallthrough]];
    default:
      try {
        attempt.response = upstream.call(request);
      } catch (...) {
        attempt.transport = true;
      }
      break;
  }
  attempt.latency = chaos::now_or_real(options_.clock) - start;
  return attempt;
}

std::optional<std::chrono::nanoseconds> FederationGateway::hedge_delay(Upstream& upstream) {
  if (!options_.hedge_enabled) return std::nullopt;
  if (options_.hedge_delay.count() > 0) return options_.hedge_delay;
  const std::int64_t cached = upstream.cached_hedge_delay_ns.load(std::memory_order_acquire);
  if (cached < 0) return std::nullopt;
  return std::chrono::nanoseconds(cached);
}

void FederationGateway::record_latency(Upstream& upstream, std::chrono::nanoseconds latency) {
  const std::lock_guard lock(upstream.latency_mutex);
  upstream.latency_ring[upstream.latency_next] = latency.count();
  upstream.latency_next = (upstream.latency_next + 1) % Upstream::kReservoirSize;
  ++upstream.latency_samples;
  if (upstream.latency_samples < std::max<std::uint64_t>(1, options_.hedge_min_samples)) {
    return;
  }
  if (upstream.latency_samples % Upstream::kRecacheEvery != 0 &&
      upstream.cached_hedge_delay_ns.load(std::memory_order_relaxed) >= 0) {
    return;
  }
  const std::size_t filled = static_cast<std::size_t>(
      std::min<std::uint64_t>(upstream.latency_samples, Upstream::kReservoirSize));
  std::vector<std::int64_t> sorted(upstream.latency_ring.begin(),
                                   upstream.latency_ring.begin() +
                                       static_cast<std::ptrdiff_t>(filled));
  const double quantile = std::clamp(options_.hedge_quantile, 0.0, 1.0);
  auto nth = sorted.begin() +
             std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(filled) - 1,
                                      static_cast<std::ptrdiff_t>(
                                          quantile * static_cast<double>(filled)));
  std::nth_element(sorted.begin(), nth, sorted.end());
  upstream.cached_hedge_delay_ns.store(*nth, std::memory_order_release);
}

FederationGateway::CallResult FederationGateway::call_upstream(
    Upstream& upstream, const net::HttpRequest& request) {
  CallResult result;
  const std::size_t depth = upstream.in_flight.load(std::memory_order_relaxed);
  if (upstream.admission->admit(depth) != net::AdmissionDecision::kAdmit) {
    result.status = CallStatus::kShed;
    return result;
  }
  const auto breaker = breakers_.breaker(upstream.id);
  if (!breaker->allow()) {
    result.status = CallStatus::kBreakerOpen;
    return result;
  }
  upstream.in_flight.fetch_add(1, std::memory_order_acq_rel);

  Attempt primary = exchange(upstream, request);
  Attempt* winner = &primary;
  std::chrono::nanoseconds effective = primary.latency;
  bool hedged = false;
  bool hedge_won = false;
  Attempt hedge;
  const auto delay = hedge_delay(upstream);
  if (delay && (primary.transport || primary.latency > *delay)) {
    // The race, resolved in (virtual) time arithmetic: the hedge is issued
    // either at the hedge delay (slow primary) or the moment the primary's
    // transport failure surfaces, whichever the timeline dictates.
    hedged = true;
    hedge = exchange(upstream, request);
    const auto issued = primary.transport ? std::min(primary.latency, *delay) : *delay;
    const auto hedge_done = issued + hedge.latency;
    const bool primary_wins =
        !primary.transport && (hedge.transport || primary.latency <= hedge_done);
    if (!primary_wins && !hedge.transport) {
      winner = &hedge;
      effective = hedge_done;
      hedge_won = true;
    } else if (primary.transport && hedge.transport) {
      // Both died: the primary's failure is THE outcome, the hedge is a
      // cancelled loser — never double-accounted.
      effective = primary.latency;
    }
  }
  upstream.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  upstream.admission->observe(effective);

  // Breaker and latency bookkeeping: the breaker sees the winner only; the
  // hedge-delay reservoir sees primary successes only (hedged completions
  // would bias the quantile toward the hedge path).
  const bool winner_failed = winner->transport || winner->response.status >= 500;
  if (winner_failed) {
    (void)breaker->record_failure();
  } else {
    breaker->record_success();
  }
  if (!primary.transport && primary.response.status < 500) {
    record_latency(upstream, primary.latency);
  }
  {
    const std::lock_guard lock(stats_mutex_);
    stats_.upstream_calls += hedged ? 2 : 1;
    if (hedged) {
      ++stats_.hedges;
      ++stats_.hedges_cancelled;  // exactly one loser per hedged race
      if (hedge_won) ++stats_.hedge_wins;
    }
  }
  if (hedged) {
    registry_.counter("gateway_hedges_total", "issued").inc();
    registry_.counter("gateway_hedges_total", "cancelled").inc();
    if (hedge_won) registry_.counter("gateway_hedges_total", "won").inc();
  }
  registry_.counter("gateway_upstream_calls_total").inc(hedged ? 2 : 1);

  result.status = winner->transport ? CallStatus::kTransport : CallStatus::kOk;
  result.response = std::move(winner->response);
  result.latency = effective;
  return result;
}

std::vector<FederationGateway::CallResult> FederationGateway::scatter(
    const net::HttpRequest& request) {
  std::vector<CallResult> results(upstreams_.size());
  const std::size_t workers =
      options_.fanout_threads == 0
          ? 1
          : std::min(options_.fanout_threads, upstreams_.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < upstreams_.size(); ++i) {
      results[i] = call_upstream(*upstreams_[i], request);
    }
    return results;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < upstreams_.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
        results[i] = call_upstream(*upstreams_[i], request);
      }
    });
  }
  for (auto& worker : pool) worker.join();
  return results;
}

// ---- outcome mapping -------------------------------------------------------

FederationGateway::Routed FederationGateway::classify(net::HttpResponse response) {
  Routed routed;
  routed.outcome = response.status < 400   ? Outcome::kOk
                   : response.status < 500 ? Outcome::kHttp4xx
                                           : Outcome::kHttp5xx;
  routed.response = std::move(response);
  return routed;
}

FederationGateway::Routed FederationGateway::from_call(CallResult result) const {
  switch (result.status) {
    case CallStatus::kOk: return classify(std::move(result.response));
    case CallStatus::kTransport:
      return {error_response(502, "upstream_transport", "shard exchange failed"),
              Outcome::kTransport};
    case CallStatus::kBreakerOpen:
      return {error_response(
                  503, "breaker_open", "shard breaker open",
                  std::chrono::duration_cast<std::chrono::milliseconds>(
                      options_.breaker.open_timeout)
                      .count()),
              Outcome::kBreakerOpen};
    case CallStatus::kShed: break;
  }
  return {error_response(503, "admission_shed", "shard admission refused", 1000),
          Outcome::kShed};
}

std::optional<FederationGateway::Routed> FederationGateway::scatter_error(
    const std::vector<CallResult>& results) const {
  for (const auto status : {CallStatus::kBreakerOpen, CallStatus::kShed,
                            CallStatus::kTransport}) {
    for (const auto& result : results) {
      if (result.status == status) {
        CallResult copy;
        copy.status = status;
        return from_call(std::move(copy));
      }
    }
  }
  for (const auto& result : results) {
    if (result.response.status != 200) {
      CallResult copy;
      copy.status = CallStatus::kOk;
      copy.response = result.response;
      return from_call(std::move(copy));
    }
  }
  return std::nullopt;
}

// ---- routes ----------------------------------------------------------------

FederationGateway::Routed FederationGateway::route_single(const net::HttpRequest& request,
                                                          std::uint64_t ring_key) {
  Upstream* upstream = find_upstream(ring_.owner(ring_key));
  if (upstream == nullptr) {
    return {error_response(503, "no_upstreams", "ring owner not registered"),
            Outcome::kShed};
  }
  return from_call(call_upstream(*upstream, request));
}

FederationGateway::Routed FederationGateway::route_apps(const net::HttpRequest& request) {
  const auto results = scatter(request);
  if (auto error = scatter_error(results)) return std::move(*error);
  // The directory is replicated entity state: every shard must serve the
  // identical page. A divergence means a shard's entity replica is corrupt —
  // surfacing it beats silently picking one.
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].response.body != results.front().response.body) {
      return {error_response(502, "shard_divergence", "replicated directory differs"),
              Outcome::kHttp5xx};
    }
  }
  return classify(results.front().response);
}

FederationGateway::Routed FederationGateway::route_app(const net::HttpRequest& request,
                                                       std::string_view rest) {
  (void)rest;
  const auto results = scatter(request);
  if (auto error = scatter_error(results)) return std::move(*error);
  std::uint64_t downloads = 0;
  std::optional<Json> first;  // the replicated entity fields come from shard 0
  for (const auto& result : results) {
    auto document = crawlersim::parse_json(result.response.body);
    if (!document || !document->is_object()) {
      return {error_response(502, "bad_upstream_body", "unparseable shard response"),
              Outcome::kHttp5xx};
    }
    const Json* field = document->find("downloads");
    if (field == nullptr || !field->is_number()) {
      return {error_response(502, "bad_upstream_body", "shard response lacks downloads"),
              Outcome::kHttp5xx};
    }
    downloads += field->as_u64();
    if (!first) first = std::move(document);
  }
  // Entity fields are replicated; only the download count is sharded.
  JsonObject merged = first->as_object();
  for (auto& member : merged) {
    if (member.first == "downloads") member.second = Json(downloads);
  }
  return classify(net::HttpResponse::json(200, Json(std::move(merged)).dump()));
}

FederationGateway::Routed FederationGateway::route_comments(const net::HttpRequest& request,
                                                            std::string_view rest) {
  constexpr std::uint64_t kPerPage = 200;  // the shard services' fixed page size
  const auto params = request.query();
  std::uint64_t page = 0;
  if (const auto it = params.find("page"); it != params.end()) {
    if (!util::parse_u64(it->second, page)) {
      return {error_response(400, "bad_request", "bad page"), Outcome::kHttp4xx};
    }
  }
  const std::string base_path = request.path();

  struct MergedComment {
    std::int64_t day = 0;
    std::size_t shard = 0;
    std::uint64_t position = 0;
    std::string body;  ///< the comment object, re-serialized
  };
  std::vector<MergedComment> rows;
  std::uint64_t total = 0;
  std::string app_field;
  for (std::size_t shard = 0; shard < upstreams_.size(); ++shard) {
    std::uint64_t shard_total = 0;
    std::uint64_t position = 0;
    for (std::uint64_t shard_page = 0;; ++shard_page) {
      if (shard_page >= options_.comment_scan_pages) {
        return {error_response(502, "comment_scan_overflow",
                               "per-shard comment pages exceed the merge bound"),
                Outcome::kHttp5xx};
      }
      net::HttpRequest page_request = request;
      page_request.target = util::format("{}?page={}", base_path, shard_page);
      CallResult result = call_upstream(*upstreams_[shard], page_request);
      if (result.status != CallStatus::kOk || result.response.status != 200) {
        std::vector<CallResult> one;
        one.push_back(std::move(result));
        return *scatter_error(one);
      }
      const auto document = crawlersim::parse_json(result.response.body);
      const Json* total_field = document ? document->find("total") : nullptr;
      const Json* comments_field = document ? document->find("comments") : nullptr;
      if (total_field == nullptr || !total_field->is_number() ||
          comments_field == nullptr || !comments_field->is_array()) {
        return {error_response(502, "bad_upstream_body", "unparseable shard comments"),
                Outcome::kHttp5xx};
      }
      if (shard_page == 0) {
        shard_total = total_field->as_u64();
        total += shard_total;
        if (app_field.empty()) {
          if (const Json* app = document->find("app"); app != nullptr && app->is_number()) {
            app_field = std::to_string(app->as_u64());
          }
        }
      }
      for (const Json& comment : comments_field->as_array()) {
        MergedComment row;
        const Json* day = comment.find("day");
        row.day = day != nullptr && day->is_number()
                      ? static_cast<std::int64_t>(day->as_number())
                      : 0;
        row.shard = shard;
        row.position = position++;
        row.body = comment.dump();
        rows.push_back(std::move(row));
      }
      if ((shard_page + 1) * kPerPage >= shard_total) break;
    }
  }
  // Deterministic merged order: day, then ring-membership order, then the
  // shard's own append order (docs/federation.md documents that this is a
  // stable federation order, not the single store's byte order).
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::tie(a.day, a.shard, a.position) < std::tie(b.day, b.shard, b.position);
  });

  std::string body = "{\"app\": ";
  body += app_field.empty() ? std::string(rest) : app_field;
  body += util::format(", \"total\": {}, \"page\": {}, \"comments\": [", total, page);
  const std::uint64_t first = page * kPerPage;
  bool wrote = false;
  for (std::uint64_t i = first; i < rows.size() && i < first + kPerPage; ++i) {
    if (wrote) body += ", ";
    body += rows[i].body;
    wrote = true;
  }
  body += "]}";
  return classify(net::HttpResponse::json(200, std::move(body)));
}

FederationGateway::Routed FederationGateway::route_query(const net::HttpRequest& request) {
  query::QuerySpec spec;
  try {
    spec = crawlersim::parse_query_request(request);
  } catch (const query::QueryError& error) {
    return {error_response(400, error.code(), error.what()), Outcome::kHttp4xx};
  }
  // A query pinned to one user lives entirely on that user's ring owner:
  // forward it whole and let the shard (and its response cache) answer.
  if (const auto user = query::single_user_route(spec)) {
    return route_single(request, static_cast<std::uint64_t>(*user));
  }
  const auto results = scatter(with_partial_flag(request));
  if (auto error = scatter_error(results)) return std::move(*error);

  std::vector<query::PartialAggregate> partials;
  partials.reserve(results.size());
  market::Day day = 0;
  for (const auto& result : results) {
    const auto document = crawlersim::parse_json(result.response.body);
    if (!document || !document->is_object()) {
      return {error_response(502, "bad_upstream_body", "unparseable shard partial"),
              Outcome::kHttp5xx};
    }
    if (const Json* shard_day = document->find("day");
        shard_day != nullptr && shard_day->is_number()) {
      day = static_cast<market::Day>(shard_day->as_number());
    }
    try {
      partials.push_back(crawlersim::partial_from_json(*document));
    } catch (const query::QueryError& error) {
      return {error_response(502, "bad_upstream_body", error.what()), Outcome::kHttp5xx};
    }
  }
  try {
    const query::QueryResult merged = query::merge_partials(spec, partials);
    return classify(
        net::HttpResponse::json(200, crawlersim::query_result_json(merged, day).dump()));
  } catch (const query::QueryError& error) {
    return {error_response(502, "shard_divergence", error.what()), Outcome::kHttp5xx};
  }
}

}  // namespace appstore::fed

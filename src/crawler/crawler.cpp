#include "crawler/crawler.hpp"

#include <algorithm>
#include <stdexcept>

#include "crawler/apk.hpp"
#include "crawler/json.hpp"
#include "obs/trace.hpp"
#include "par/parallel.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace appstore::crawlersim {

namespace {

constexpr std::string_view kComponent = "crawler";

/// App ids per pipelined window: each phase of a window is one write of up
/// to this many requests per proxy connection (docs/performance.md,
/// "Pipelined crawl").
constexpr std::size_t kWindow = 16;

/// Comments per page of /api/v1/app/<id>/comments.
constexpr std::uint64_t kCommentsPerPage = 200;

}  // namespace

std::chrono::milliseconds decorrelated_backoff(std::chrono::milliseconds base,
                                               std::chrono::milliseconds cap,
                                               std::chrono::milliseconds previous,
                                               util::Rng& rng) {
  const auto upper = std::min(cap, previous * 3);
  if (upper <= base) return base;
  const auto span = static_cast<std::uint64_t>((upper - base).count());
  return base + std::chrono::milliseconds(
                    static_cast<std::chrono::milliseconds::rep>(rng.below(span + 1)));
}

Crawler::Crawler(CrawlerOptions options, CrawlDatabase& database)
    : options_(std::move(options)),
      database_(database),
      proxies_(options_.proxy_count, options_.proxy_regions) {
  net::CircuitBreaker::Options breaker_options = options_.breaker;
  if (breaker_options.clock == nullptr) breaker_options.clock = options_.clock;
  breakers_.reserve(proxies_.size());
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    breakers_.push_back(std::make_unique<net::CircuitBreaker>(breaker_options));
  }
  const std::size_t workers = std::max<std::size_t>(1, options_.threads);
  clients_.resize(workers * proxies_.size());
  if (options_.metrics != nullptr) {
    obs::Registry& registry = *options_.metrics;
    registry.describe("crawler_requests_total", "HTTP exchanges completed (incl. retries)");
    registry.describe("crawler_retries_total", "Fetch attempts beyond the first");
    registry.describe("crawler_breaker_open_total",
                      "Per-proxy circuit breaker open transitions");
    registry.describe("crawler_pages_total", "Directory pages enumerated");
    registry.describe("crawler_apps_observed_total", "App statistics pages recorded");
    registry.describe("crawler_apk_bytes_total", "Bytes of APK payload downloaded");
    registry.describe("crawler_responses_total", "Non-200 responses by cause");
    registry.describe("crawler_fetch_seconds", "Wall time of one fetch (incl. retries)");
    metrics_.requests = &registry.counter("crawler_requests_total");
    metrics_.retries = &registry.counter("crawler_retries_total");
    metrics_.breaker_open = &registry.counter("crawler_breaker_open_total");
    metrics_.pages = &registry.counter("crawler_pages_total");
    metrics_.apps = &registry.counter("crawler_apps_observed_total");
    metrics_.apk_bytes = &registry.counter("crawler_apk_bytes_total");
    metrics_.by_status[0] = &registry.counter("crawler_responses_total", "429");
    metrics_.by_status[1] = &registry.counter("crawler_responses_total", "403");
    metrics_.by_status[2] = &registry.counter("crawler_responses_total", "5xx");
    metrics_.by_status[3] = &registry.counter("crawler_responses_total", "404");
    metrics_.fetch_seconds = &registry.histogram("crawler_fetch_seconds");
  }
}

net::PersistentHttpClient& Crawler::client_for(std::size_t worker, std::size_t proxy_index) {
  auto& client = clients_.at(worker * proxies_.size() + proxy_index);
  if (!client) {
    client = std::make_unique<net::PersistentHttpClient>(
        options_.host, options_.port,
        net::ClientOptions{.clock = options_.clock, .faults = options_.faults});
  }
  return *client;
}

std::optional<std::size_t> Crawler::pick_allowed(util::Rng& rng, bool& pool_empty) {
  pool_empty = false;
  for (std::size_t tries = 0; tries < proxies_.size(); ++tries) {
    const auto index = proxies_.pick(rng);
    if (!index.has_value()) {
      pool_empty = true;
      return std::nullopt;
    }
    if (breakers_[*index]->allow()) return index;
  }
  return std::nullopt;  // every pick landed on a cooling-off proxy
}

Crawler::Fetch::Fetch(std::string target_in, std::uint64_t seed, std::chrono::milliseconds base)
    : target(std::move(target_in)),
      // Deterministic per-target randomness: proxy picks and backoff draws
      // come from a generator derived from (crawl seed, target) — never from
      // a stream shared across targets — so a parallel crawl makes the same
      // decisions for this target under any thread schedule and window.
      rng(util::rng::derive_seed(seed, util::hash64(target))),
      previous(base) {}

bool Crawler::backoff(Fetch& fetch) {
  const auto base = options_.rate_limit_backoff;
  const auto delay = decorrelated_backoff(base, base * options_.backoff_cap_multiplier,
                                          fetch.previous, fetch.rng);
  fetch.previous = delay;
  if (fetch.slept + delay > options_.retry_budget) {
    util::log_debug(kComponent, "retry budget exhausted for {}", fetch.target);
    return false;
  }
  fetch.slept += delay;
  chaos::sleep_or_real(options_.clock, delay);
  return true;
}

void Crawler::finish(Fetch& fetch) {
  fetch.done = true;
  if (metrics_.fetch_seconds != nullptr) {
    metrics_.fetch_seconds->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - fetch.started)
            .count());
  }
}

bool Crawler::begin_attempt(Fetch& fetch) {
  for (; fetch.attempt < options_.max_attempts; ++fetch.attempt) {
    if (fetch.attempt > 0 && metrics_.retries != nullptr) metrics_.retries->inc();
    bool pool_empty = false;
    const auto proxy_index = pick_allowed(fetch.rng, pool_empty);
    if (proxy_index.has_value()) {
      fetch.proxy = *proxy_index;
      return true;
    }
    if (pool_empty) {
      util::log_warn(kComponent, "no healthy proxies left");
      break;
    }
    // Every healthy proxy is cooling off; wait out part of the breaker
    // timeout and try again (consumes an attempt).
    if (!backoff(fetch)) break;
  }
  finish(fetch);
  return false;
}

void Crawler::judge(Fetch& fetch, net::ExchangeResult& result, CrawlStats& stats) {
  ++stats.requests;
  if (metrics_.requests != nullptr) metrics_.requests->inc();
  const net::Proxy& proxy = proxies_.proxy(fetch.proxy);
  net::CircuitBreaker& breaker = *breakers_[fetch.proxy];
  const int status = result.response.has_value() ? result.response->status : 0;
  if (status == 200) {
    breaker.record_success();
    proxies_.report_success(fetch.proxy);
    fetch.body = std::move(result.response->body);
    finish(fetch);
    return;
  }
  if (status == 404) {
    if (metrics_.by_status[3] != nullptr) metrics_.by_status[3]->inc();
    breaker.record_success();
    proxies_.report_success(fetch.proxy);
    finish(fetch);  // not an infrastructure problem
    return;
  }
  if (status == 429) {
    ++stats.rate_limited;
    if (metrics_.by_status[0] != nullptr) metrics_.by_status[0]->inc();
    // The proxy identity is saturated: the service answered, so the proxy
    // is fine (no breaker/quarantine) — wait for its token bucket to
    // refill, then retry (usually through a different proxy).
    breaker.record_success();
    if (!backoff(fetch)) {
      finish(fetch);
      return;
    }
  } else if (status == 403) {
    ++stats.region_blocked;
    if (metrics_.by_status[1] != nullptr) metrics_.by_status[1]->inc();
    // Wrong region for this store: a deterministic rejection that will
    // repeat forever — quarantine so the pool converges on usable (e.g.
    // Chinese) proxies, as the paper's setup did.
    breaker.record_success();
    proxies_.report_failure(fetch.proxy, 1);
  } else {
    // 5xx or a transport error: transient infrastructure trouble — the
    // breaker's domain.
    ++stats.transient_failures;
    if (metrics_.by_status[2] != nullptr) metrics_.by_status[2]->inc();
    if (breaker.record_failure()) {
      if (metrics_.breaker_open != nullptr) metrics_.breaker_open->inc();
      util::log_debug(kComponent, "breaker opened for {}", proxy.id);
    }
    if (result.error) {
      try {
        std::rethrow_exception(result.error);
      } catch (const std::exception& error) {
        util::log_debug(kComponent, "transport error via {}: {}", proxy.id, error.what());
      }
    }
  }
  ++fetch.attempt;
}

void Crawler::attempt(std::span<Fetch* const> batch, CrawlStats& stats, std::size_t worker) {
  if (metrics_.fetch_seconds != nullptr) {
    const auto now = std::chrono::steady_clock::now();
    for (Fetch* fetch : batch) {
      if (fetch->started == std::chrono::steady_clock::time_point{}) fetch->started = now;
    }
  }
  // Picks first, in batch order, then one pipelined exchange per picked
  // proxy (its connection), keeping batch order within it.
  std::vector<Fetch*> picked;
  picked.reserve(batch.size());
  for (Fetch* fetch : batch) {
    if (!fetch->done && begin_attempt(*fetch)) picked.push_back(fetch);
  }
  std::stable_sort(picked.begin(), picked.end(),
                   [](const Fetch* a, const Fetch* b) { return a->proxy < b->proxy; });
  std::vector<net::HttpRequest> requests;
  for (std::size_t begin = 0; begin < picked.size();) {
    const std::size_t proxy_index = picked[begin]->proxy;
    std::size_t end = begin;
    while (end < picked.size() && picked[end]->proxy == proxy_index) ++end;
    requests.assign(end - begin, net::HttpRequest{});
    for (std::size_t k = begin; k < end; ++k) {
      requests[k - begin].target = picked[k]->target;
      requests[k - begin].headers["X-Client-Id"] = proxies_.proxy(proxy_index).id;
    }
    auto results = client_for(worker, proxy_index).exchange(requests);
    for (std::size_t k = begin; k < end; ++k) judge(*picked[k], results[k - begin], stats);
    begin = end;
  }
}

void Crawler::fetch_all(std::span<Fetch> fetches, CrawlStats& stats, std::size_t worker) {
  std::vector<Fetch*> batch;
  batch.reserve(fetches.size());
  for (Fetch& fetch : fetches) batch.push_back(&fetch);
  attempt(batch, stats, worker);
  // Whatever did not finish continues its own retry loop, one target at a
  // time (the retries are rare; their backoff sleeps dominate them).
  for (Fetch* fetch : batch) {
    while (!fetch->done) attempt(std::span(&fetch, 1), stats, worker);
  }
}

void Crawler::crawl_window(std::span<const std::uint32_t> ids, market::Day day,
                           CrawlStats& stats, std::size_t worker) {
  std::vector<Fetch> fetches;
  fetches.reserve(ids.size());
  const auto add = [&](std::string target) {
    fetches.emplace_back(std::move(target), options_.seed, options_.rate_limit_backoff);
  };

  // 1. Statistics pages.
  for (const std::uint32_t id : ids) add(util::format("/api/v1/app/{}", id));
  fetch_all(fetches, stats, worker);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> observed;  ///< (id, version)
  observed.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!fetches[i].body.has_value()) continue;
    const auto parsed = parse_json(*fetches[i].body);
    if (!parsed.has_value()) continue;

    AppRecord metadata;
    metadata.id = ids[i];
    metadata.name = parsed->at("name").as_string();
    metadata.category = parsed->at("category").as_string();
    metadata.developer = parsed->at("developer").as_string();
    metadata.paid = parsed->at("paid").as_bool();
    metadata.has_ads = parsed->at("has_ads").as_bool();

    AppObservation observation;
    observation.downloads = parsed->at("downloads").as_u64();
    observation.version = static_cast<std::uint32_t>(parsed->at("version").as_u64());
    observation.price_dollars = parsed->at("price").as_number();

    {
      const std::lock_guard lock(database_mutex_);
      database_.record(metadata, day, observation);
    }
    ++stats.apps_observed;
    if (metrics_.apps != nullptr) metrics_.apps->inc();
    observed.emplace_back(ids[i], observation.version);
  }

  // 2. APKs: fetched at most once per (app, version) across all crawl days —
  // the paper's "we download each app version only once". Each app id is
  // owned by exactly one shard, so check-then-record cannot race.
  if (options_.fetch_apks) {
    std::vector<std::uint32_t> apk_ids;
    {
      const std::lock_guard lock(database_mutex_);
      for (const auto& [id, version] : observed) {
        if (!database_.apk_scanned(id, version)) apk_ids.push_back(id);
      }
    }
    fetches.clear();
    for (const std::uint32_t id : apk_ids) add(util::format("/api/v1/app/{}/apk", id));
    fetch_all(fetches, stats, worker);
    for (std::size_t i = 0; i < apk_ids.size(); ++i) {
      const auto& apk = fetches[i].body;
      if (!apk.has_value()) continue;
      if (metrics_.apk_bytes != nullptr) metrics_.apk_bytes->inc(apk->size());
      const auto scan = scan_apk(*apk);
      if (!scan.has_value()) continue;
      const std::lock_guard lock(database_mutex_);
      database_.record_apk_scan(apk_ids[i], scan->header.version, scan->has_ads());
      ++stats.apks_fetched;
    }
  }

  // 3. Comment pages: page 0 of every observed app, then page k + 1 of the
  // apps whose page k says more follow.
  if (options_.fetch_comments) {
    std::vector<std::uint32_t> pending;
    pending.reserve(observed.size());
    for (const auto& [id, version] : observed) pending.push_back(id);
    for (std::uint64_t page = 0; !pending.empty(); ++page) {
      fetches.clear();
      for (const std::uint32_t id : pending) {
        add(util::format("/api/v1/app/{}/comments?page={}", id, page));
      }
      fetch_all(fetches, stats, worker);
      std::vector<std::uint32_t> more;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        if (!fetches[i].body.has_value()) continue;
        const auto comments = parse_json(*fetches[i].body);
        if (!comments.has_value()) continue;
        const auto& array = comments->at("comments").as_array();
        stats.comments_observed += array.size();
        const std::uint64_t total = comments->at("total").as_u64();
        if ((page + 1) * kCommentsPerPage < total && !array.empty()) more.push_back(pending[i]);
      }
      pending = std::move(more);
    }
  }
}

CrawlStats Crawler::crawl_day(market::Day day) {
  const obs::TraceSpan day_span(options_.metrics, "crawl_day");
  CrawlStats stats;

  // 1. Enumerate the directory (serial; pages form one dependent chain).
  std::vector<std::uint32_t> ids;
  {
    const obs::TraceSpan directory_span(options_.metrics, "directory");
    std::uint64_t page = 0;
    for (;;) {
      Fetch fetch(util::format("/api/v1/apps?page={}&per_page={}", page, options_.per_page),
                  options_.seed, options_.rate_limit_backoff);
      fetch_all(std::span(&fetch, 1), stats, /*worker=*/0);
      const auto& body = fetch.body;
      if (!body.has_value()) {
        if (page == 0) throw std::runtime_error("crawl_day: cannot enumerate directory");
        break;
      }
      if (metrics_.pages != nullptr) metrics_.pages->inc();
      const auto parsed = parse_json(*body);
      if (!parsed.has_value()) throw std::runtime_error("crawl_day: bad directory JSON");
      const auto& id_array = parsed->at("ids").as_array();
      for (const auto& id : id_array) {
        ids.push_back(static_cast<std::uint32_t>(id.as_u64()));
      }
      const std::uint64_t total = parsed->at("total").as_u64();
      ++page;
      if (page * options_.per_page >= total || id_array.empty()) break;
    }
  }

  // 2. Fetch per-app statistics, sharded across workers, each shard in
  // pipelined windows of kWindow ids. grain = ceil(n / threads) yields at
  // most `threads` shards, so the shard index doubles as the worker index
  // into the per-worker client sets. Stats are accumulated per shard and
  // summed in shard order — bit-identical for any thread count (the shard
  // boundaries depend only on ids.size() and threads, and a target's picks,
  // faults and retries do not depend on its window).
  const obs::TraceSpan apps_span(options_.metrics, "apps");
  const std::size_t workers = std::max<std::size_t>(1, options_.threads);
  if (!ids.empty()) {
    std::vector<CrawlStats> shard_stats(workers);
    par::Options par_options;
    par_options.threads = workers;
    par_options.grain = (ids.size() + workers - 1) / workers;
    par::for_shards(ids.size(), par_options,
                    [&](std::size_t begin, std::size_t end, std::size_t shard) {
                      for (std::size_t i = begin; i < end; i += kWindow) {
                        crawl_window(std::span(ids).subspan(i, std::min(kWindow, end - i)),
                                     day, shard_stats.at(shard), shard);
                      }
                    });
    for (const CrawlStats& shard : shard_stats) {
      stats.requests += shard.requests;
      stats.rate_limited += shard.rate_limited;
      stats.region_blocked += shard.region_blocked;
      stats.transient_failures += shard.transient_failures;
      stats.apps_observed += shard.apps_observed;
      stats.comments_observed += shard.comments_observed;
      stats.apks_fetched += shard.apks_fetched;
    }
  }

  totals_.requests += stats.requests;
  totals_.rate_limited += stats.rate_limited;
  totals_.region_blocked += stats.region_blocked;
  totals_.transient_failures += stats.transient_failures;
  totals_.apps_observed += stats.apps_observed;
  totals_.comments_observed += stats.comments_observed;
  totals_.apks_fetched += stats.apks_fetched;
  return stats;
}

}  // namespace appstore::crawlersim

// The daily crawler (the "client side" of Fig. 1).
//
// For each crawl day the crawler pages through the store directory and
// fetches every app's statistics page, routing each request through a
// randomly chosen proxy (retrying through another proxy on 429/403/5xx)
// and recording observations into a CrawlDatabase. This mirrors the
// paper's Scrapy + PlanetLab pipeline: daily revisits update statistics of
// known apps and pick up newly added apps, expanding the dataset.
//
// Failure handling has two tiers, matching the two failure shapes the
// paper's crawlers saw:
//  - ProxyPool quarantine for deterministic rejections (a region-blocked
//    proxy 403s forever — drop it so the pool converges on usable proxies);
//  - a per-proxy net::CircuitBreaker for transient trouble (5xx, transport
//    errors): the proxy is skipped while its breaker is open and probed
//    again after a cool-off.
// Retries back off with seeded decorrelated jitter and respect a cumulative
// retry budget per fetch.
//
// Pipelining: each shard walks its app ids in fixed windows and, per window
// and phase, writes all of the phase's requests to a keep-alive connection
// at once, then reads the responses back in order — the several requests
// in flight per connection of the paper's Scrapy crawler.
//
// Determinism: with `threads > 1` the per-app phase runs on appstore_par
// shards, and every random decision (proxy picks, backoff draws) comes from
// a generator derived from (crawl seed, request target) — never from a
// shared stream — so a crawl produces bit-identical results for any thread
// count, with or without injected faults (see tests/robustness_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "crawler/database.hpp"
#include "net/breaker.hpp"
#include "net/proxy.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace appstore::crawlersim {

/// Aggregate construction options for Crawler (the Options-struct API: new
/// knobs land here without touching the constructor signature).
struct CrawlerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Proxies to rotate over; Chinese stores need kChina proxies available.
  std::size_t proxy_count = 16;
  std::vector<net::Region> proxy_regions = {net::Region::kChina, net::Region::kEurope,
                                            net::Region::kUsa};
  /// Per-request retry budget (each retry uses a fresh proxy).
  std::uint32_t max_attempts = 8;
  /// Base backoff after a 429 or while every proxy's breaker is open. Real
  /// crawls space requests naturally; tests replay whole crawl days
  /// back-to-back, so the crawler must let token buckets refill.
  std::chrono::milliseconds rate_limit_backoff = std::chrono::milliseconds(20);
  /// Backoff delays are drawn with decorrelated jitter from
  /// [rate_limit_backoff, rate_limit_backoff * backoff_cap_multiplier].
  std::uint32_t backoff_cap_multiplier = 16;
  /// Cumulative backoff budget for one fetch; once spent, the fetch gives
  /// up even if attempts remain (bounds worst-case latency per target).
  std::chrono::milliseconds retry_budget = std::chrono::milliseconds(10000);
  std::uint64_t seed = 0xc4aa;
  /// Directory page size used while enumerating apps.
  std::uint64_t per_page = 200;
  /// Worker threads for the per-app phase (directory enumeration is
  /// serial). Results are bit-identical across thread counts.
  std::size_t threads = 1;
  /// Also fetch comment pages for apps (needed by the affinity pipeline).
  bool fetch_comments = false;
  /// Also fetch and scan APKs — once per (app, version), as in the paper's
  /// pipeline. Feeds the §6.3 ad-library analysis.
  bool fetch_apks = false;
  /// Per-proxy circuit breaker tuning; failure_threshold 0 disables the
  /// breakers. The breaker clock defaults to `clock` when unset.
  net::CircuitBreaker::Options breaker;
  /// Time source for backoff sleeps and breaker timeouts (nullptr = real
  /// time). Robustness tests pass a chaos::VirtualClock so backoff-heavy
  /// crawls replay in microseconds. Must outlive the crawler.
  chaos::Clock* clock = nullptr;
  /// Optional fault seam handed to every HTTP client (see
  /// net::ClientOptions). Must outlive the crawler.
  chaos::FaultInjector* faults = nullptr;
  /// Optional metrics sink (crawler_* families, trace spans; see
  /// docs/observability.md). Must outlive the crawler.
  obs::Registry* metrics = nullptr;
};

struct CrawlStats {
  std::uint64_t requests = 0;
  std::uint64_t rate_limited = 0;      ///< 429 responses
  std::uint64_t region_blocked = 0;    ///< 403 responses
  std::uint64_t transient_failures = 0; ///< 5xx responses + transport errors
  std::uint64_t apps_observed = 0;
  std::uint64_t comments_observed = 0;
  std::uint64_t apks_fetched = 0;      ///< new (app, version) APK downloads

  friend bool operator==(const CrawlStats&, const CrawlStats&) = default;
};

/// AWS-style decorrelated-jitter backoff: the next delay is drawn uniformly
/// from [base, min(cap, 3 * previous)]. Jitter decorrelates retry bursts
/// from many clients; deriving `rng` from the crawl seed and target keeps
/// the schedule deterministic (tests/robustness_test.cpp asserts it).
[[nodiscard]] std::chrono::milliseconds decorrelated_backoff(std::chrono::milliseconds base,
                                                             std::chrono::milliseconds cap,
                                                             std::chrono::milliseconds previous,
                                                             util::Rng& rng);

class Crawler {
 public:
  Crawler(CrawlerOptions options, CrawlDatabase& database);

  /// Crawls the store once for `day` (the service must be set to that day).
  /// Returns per-day statistics; throws std::runtime_error if the directory
  /// cannot be enumerated at all.
  CrawlStats crawl_day(market::Day day);

  [[nodiscard]] const net::ProxyPool& proxies() const noexcept { return proxies_; }
  [[nodiscard]] const CrawlStats& totals() const noexcept { return totals_; }

  /// The circuit breaker guarding proxy `index` (for tests and reports).
  [[nodiscard]] const net::CircuitBreaker& breaker(std::size_t index) const {
    return *breakers_.at(index);
  }

 private:
  /// Lock-free handles into options_.metrics; all nullptr when disabled.
  struct Metrics {
    obs::Counter* requests = nullptr;        ///< crawler_requests_total
    obs::Counter* retries = nullptr;         ///< crawler_retries_total
    obs::Counter* breaker_open = nullptr;    ///< crawler_breaker_open_total
    obs::Counter* pages = nullptr;           ///< crawler_pages_total (directory pages)
    obs::Counter* apps = nullptr;            ///< crawler_apps_observed_total
    obs::Counter* apk_bytes = nullptr;       ///< crawler_apk_bytes_total
    obs::Counter* by_status[4] = {};         ///< crawler_responses_total{429,403,5xx,404}
    obs::Histogram* fetch_seconds = nullptr; ///< crawler_fetch_seconds
  };

  /// One target's fetch, resumable: its first attempt goes out pipelined
  /// with the rest of its window and any retries follow one at a time, all
  /// from this state. Proxy picks and backoff draws come from `rng`, derived
  /// from (crawl seed, target), so a target makes the same decisions in any
  /// window, under any thread schedule.
  struct Fetch {
    std::string target;
    util::Rng rng;
    std::chrono::milliseconds previous;  ///< last backoff delay
    std::chrono::milliseconds slept{0};  ///< backoff spent so far
    std::uint32_t attempt = 0;
    std::size_t proxy = 0;  ///< proxy of the attempt in flight
    bool done = false;
    std::optional<std::string> body;  ///< the body of a 200, once done
    std::chrono::steady_clock::time_point started{};  ///< its first batch began

    Fetch(std::string target, std::uint64_t seed, std::chrono::milliseconds base);
  };

  /// GETs every target with proxy rotation, breaker-aware picks, and
  /// jittered bounded retries. First attempts are pipelined: one batch per
  /// picked proxy, in `fetches` order. Each target still unfinished then
  /// runs its retry loop alone. A fetch ends with its body on HTTP 200 and
  /// without one on 404 or when the retry/attempt budget is spent. `worker`
  /// selects the client set; a target must be in one call at a time.
  void fetch_all(std::span<Fetch> fetches, CrawlStats& stats, std::size_t worker);
  /// One attempt for each unfinished fetch in `batch`.
  void attempt(std::span<Fetch* const> batch, CrawlStats& stats, std::size_t worker);
  /// Picks the proxy of `fetch`'s next attempt; false once it gave up.
  [[nodiscard]] bool begin_attempt(Fetch& fetch);
  /// Records one exchange's outcome: 200 and 404 finish the fetch, anything
  /// else leaves it for its next attempt.
  void judge(Fetch& fetch, net::ExchangeResult& result, CrawlStats& stats);
  /// Sleeps the next decorrelated backoff; false when the retry budget is spent.
  [[nodiscard]] bool backoff(Fetch& fetch);
  /// Marks `fetch` done and records its crawler_fetch_seconds sample.
  void finish(Fetch& fetch);

  /// Pool pick that skips proxies whose breaker is open; nullopt when no
  /// pick is currently possible (sets `pool_empty` when the pool itself has
  /// no healthy proxy, a permanent condition).
  [[nodiscard]] std::optional<std::size_t> pick_allowed(util::Rng& rng, bool& pool_empty);

  /// Crawls one window of app ids, phase by phase: the statistics pages,
  /// the APKs of versions not yet scanned, then the comment pages. Each
  /// phase pipelines its requests (see fetch_all). Records into the
  /// database; runs concurrently across shards.
  void crawl_window(std::span<const std::uint32_t> ids, market::Day day, CrawlStats& stats,
                    std::size_t worker);

  /// One persistent connection per (worker, proxy identity) — workers never
  /// share a client, so the per-proxy sessions of the paper's setup remain
  /// single-threaded objects; lazily opened.
  [[nodiscard]] net::PersistentHttpClient& client_for(std::size_t worker,
                                                      std::size_t proxy_index);

  CrawlerOptions options_;
  CrawlDatabase& database_;
  net::ProxyPool proxies_;
  std::vector<std::unique_ptr<net::CircuitBreaker>> breakers_;
  CrawlStats totals_;
  Metrics metrics_;
  std::mutex database_mutex_;
  std::vector<std::unique_ptr<net::PersistentHttpClient>> clients_;
};

}  // namespace appstore::crawlersim

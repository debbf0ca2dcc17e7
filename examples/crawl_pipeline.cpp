// Crawl pipeline: the full Fig.-1 architecture on loopback.
//
// Generates a China-located appstore, serves it over real HTTP with per-IP
// rate limiting, region gating and injected transient failures, then runs
// the daily crawler through a mixed-region proxy pool and reconstructs the
// Table-1 dataset summary from the crawl database alone.
//
//   $ ./crawl_pipeline [--days N] [--proxies N] [--failure-rate X]
#include <cstdio>

#include "crawler/crawler.hpp"
#include "crawler/service.hpp"
#include "market/snapshot.hpp"
#include "report/table.hpp"
#include "synth/generator.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace appstore;

  util::Cli cli("crawl_pipeline", "serve a synthetic appstore over HTTP and crawl it");
  auto seed = cli.u64("seed", 7, "PRNG seed");
  auto days = cli.u64("days", 6, "number of crawl days (spread across the window)");
  auto proxies = cli.u64("proxies", 12, "proxy pool size (3 regions round-robin)");
  auto failure_rate = cli.f64("failure-rate", 0.05, "injected transient failure rate");
  cli.parse(argc, argv);

  // A small AppChina-like store (China-gated, §2.2).
  synth::GeneratorConfig config;
  config.seed = *seed;
  config.app_scale = 0.004;
  config.download_scale = 4e-6;
  const auto generated = synth::generate(synth::appchina(), config);
  std::printf("ground truth: %zu apps, %llu downloads\n", generated.store->apps().size(),
              static_cast<unsigned long long>(generated.store->total_downloads()));

  crawlersim::ServicePolicy policy;
  policy.china_only = true;
  policy.failure_rate = *failure_rate;
  crawlersim::AppstoreService service(*generated.store, policy);
  std::printf("appstore service on 127.0.0.1:%u (china-gated, %.0f%% injected failures)\n",
              service.port(), 100.0 * *failure_rate);

  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions crawler_config;
  crawler_config.port = service.port();
  crawler_config.proxy_count = *proxies;
  crawler_config.seed = *seed + 1;
  crawlersim::Crawler crawler(crawler_config, database);

  const market::Day window = synth::appchina().crawl_days;
  report::Table progress({"day", "requests", "429", "403", "5xx", "apps observed"});
  for (std::uint64_t k = 0; k < *days; ++k) {
    const auto day = static_cast<market::Day>(k * static_cast<std::uint64_t>(window) /
                                              (*days > 1 ? *days - 1 : 1));
    service.set_day(day);
    const auto stats = crawler.crawl_day(day);
    progress.row({std::to_string(day), std::to_string(stats.requests),
                  std::to_string(stats.rate_limited), std::to_string(stats.region_blocked),
                  std::to_string(stats.transient_failures),
                  std::to_string(stats.apps_observed)});
  }
  std::printf("\ncrawl log:\n%s", progress.render().c_str());
  std::printf("healthy proxies left: %zu of %zu (non-Chinese ones get quarantined)\n\n",
              crawler.proxies().healthy_count(), crawler.proxies().size());

  // Reconstruct the Table-1 row purely from crawled observations.
  const auto series = database.snapshot_series();
  const auto summary = market::summarize("AppChina (crawled)", series);
  report::Table table({"store", "apps first/last", "new apps/day", "downloads first/last",
                       "daily downloads"});
  table.row({summary.store,
             util::format("{} / {}", summary.apps_first_day, summary.apps_last_day),
             report::fixed(summary.new_apps_per_day, 1),
             util::format("{} / {}", summary.downloads_first_day, summary.downloads_last_day),
             report::fixed(summary.daily_downloads, 1)});
  std::printf("%s", table.render().c_str());

  // Cross-check against ground truth.
  const auto truth = generated.store->downloads_by_rank();
  const auto crawled = database.downloads_by_rank(window);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(truth.size(), crawled.size()); ++i) {
    if (truth[i] != crawled[i]) ++mismatches;
  }
  std::printf("\nrank-curve mismatches vs ground truth: %zu of %zu ranks\n", mismatches,
              truth.size());
  return 0;
}

// End-to-end integration tests: generate -> serve over HTTP -> crawl ->
// analyze from the crawl database -> fit models -> rank model quality.
// This is the paper's entire pipeline (Fig. 1 + §3-§5) in one test binary.
#include <gtest/gtest.h>

#include "core/study.hpp"
#include "crawler/crawler.hpp"
#include "crawler/service.hpp"
#include "fit/sweep.hpp"
#include "report/table.hpp"
#include "util/format.hpp"
#include "stats/pareto.hpp"
#include "stats/powerlaw.hpp"

namespace appstore {
namespace {

TEST(Pipeline, CrawlThenAnalyzeMatchesDirectAnalysis) {
  // 1. Generate a small Anzhi-like marketplace.
  synth::GeneratorConfig config;
  config.app_scale = 0.004;      // ~240 apps
  config.download_scale = 4e-6;  // ~11k downloads
  config.seed = 21;
  const auto generated = synth::generate(synth::anzhi(), config);

  // 2. Serve it and crawl it on three days.
  crawlersim::ServicePolicy policy;
  crawlersim::AppstoreService service(*generated.store, policy);
  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions crawler_config;
  crawler_config.port = service.port();
  crawlersim::Crawler crawler(crawler_config, database);
  for (const market::Day day : {0, 30, 60}) {
    service.set_day(day);
    (void)crawler.crawl_day(day);
  }

  // 3. The crawled rank-download curve equals the ground-truth curve.
  const auto crawled = database.downloads_by_rank(60);
  const auto truth = generated.store->downloads_by_rank();
  ASSERT_EQ(crawled.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_DOUBLE_EQ(crawled[i], truth[i]) << "rank " << i + 1;
  }

  // 4. Pareto and power-law conclusions agree between the two views.
  EXPECT_NEAR(stats::top_share(crawled, 0.10), stats::top_share(truth, 0.10), 1e-12);
}

TEST(Pipeline, ModelRankingFromCrawledData) {
  // Fit all three models against CRAWLED data (not ground truth): the
  // paper's headline result — APP-CLUSTERING fits best — must survive the
  // crawl pipeline.
  // Scale note: d (downloads per user) must stay small relative to the app
  // count or every user drains a large share of the catalog and the models
  // converge; raising top_app_share lowers d at fixed totals.
  synth::StoreProfile profile = synth::anzhi();
  profile.free_segment.top_app_share = 0.02;
  synth::GeneratorConfig config;
  config.app_scale = 0.02;       // ~1200 apps
  config.download_scale = 1e-5;  // ~28k downloads
  config.seed = 22;
  const auto generated = synth::generate(profile, config);

  crawlersim::AppstoreService service(*generated.store, crawlersim::ServicePolicy{});
  service.set_day(60);
  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions crawler_config;
  crawler_config.port = service.port();
  crawlersim::Crawler crawler(crawler_config, database);
  (void)crawler.crawl_day(60);

  const auto measured = database.downloads_by_rank(60);
  ASSERT_FALSE(measured.empty());
  const auto users = static_cast<std::uint64_t>(measured.front());

  fit::SweepOptions options;
  options.zr_grid = {1.2, 1.4, 1.6};
  options.p_grid = {0.9};
  options.zc_grid = {1.4};
  options.seed = 23;

  const auto zipf = fit::fit_model(models::ModelKind::kZipf, measured, users, 34, options);
  const auto amo =
      fit::fit_model(models::ModelKind::kZipfAtMostOnce, measured, users, 34, options);
  const auto clustering =
      fit::fit_model(models::ModelKind::kAppClustering, measured, users, 34, options);

  EXPECT_LT(clustering.distance, amo.distance);
  EXPECT_LT(amo.distance, zipf.distance);
}

TEST(Pipeline, RateLimitedChinaCrawlStillCompletes) {
  // The harsh path: china-only gating + tight rate limits + injected
  // failures, all at once. The crawler must converge on Chinese proxies,
  // spread load across them, retry failures, and still fetch everything.
  synth::GeneratorConfig config;
  config.app_scale = 0.002;
  config.download_scale = 2e-6;
  config.seed = 24;
  const auto generated = synth::generate(synth::appchina(), config);

  crawlersim::ServicePolicy policy;
  policy.china_only = true;
  policy.failure_rate = 0.05;
  policy.rate_per_second = 500.0;
  policy.burst = 40.0;
  crawlersim::AppstoreService service(*generated.store, policy);
  service.set_day(65);

  crawlersim::CrawlDatabase database;
  crawlersim::CrawlerOptions crawler_config;
  crawler_config.port = service.port();
  crawler_config.proxy_count = 15;  // 5 per region
  crawler_config.max_attempts = 10;
  crawlersim::Crawler crawler(crawler_config, database);
  const auto stats = crawler.crawl_day(65);

  EXPECT_GT(stats.region_blocked, 0u);
  EXPECT_EQ(database.app_count(), generated.store->apps().size());
}

TEST(Pipeline, CacheStudyModelOrdering) {
  // Fig. 19's qualitative ordering: ZIPF >= ZIPF-at-most-once >>
  // APP-CLUSTERING in LRU hit ratio, across cache sizes.
  const core::CacheStudyOptions options{
      .scale = 0.02, .policy = cache::PolicyKind::kLru, .seed = 31};
  const auto zipf = core::cache_study(models::ModelKind::kZipf, options);
  const auto amo = core::cache_study(models::ModelKind::kZipfAtMostOnce, options);
  const auto clustering = core::cache_study(models::ModelKind::kAppClustering, options);
  for (const std::size_t i : {std::size_t{0}, std::size_t{9}, std::size_t{19}}) {
    EXPECT_GT(zipf.points[i].hit_ratio, clustering.points[i].hit_ratio) << "size " << i;
    EXPECT_GT(amo.points[i].hit_ratio, clustering.points[i].hit_ratio) << "size " << i;
  }
}

TEST(Pipeline, TableOneRendersForAllProfiles) {
  synth::GeneratorConfig config;
  config.app_scale = 0.005;
  config.download_scale = 2e-6;
  report::Table table({"store", "apps first/last", "downloads first/last"});
  for (const auto& profile : synth::all_profiles()) {
    const core::EcosystemStudy study(profile, config);
    const auto summary = study.dataset_summary();
    table.row({summary.store,
               util::format("{} / {}", summary.apps_first_day, summary.apps_last_day),
               util::format("{} / {}", summary.downloads_first_day,
                            summary.downloads_last_day)});
  }
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("Anzhi"), std::string::npos);
  EXPECT_NE(rendered.find("SlideMe"), std::string::npos);
  EXPECT_NE(rendered.find("1Mobile"), std::string::npos);
  EXPECT_NE(rendered.find("AppChina"), std::string::npos);
}

}  // namespace
}  // namespace appstore

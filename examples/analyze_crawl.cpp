// Bring-your-own-data analysis: load a crawl database from CSV (produced by
// the crawler, by save_database(), or hand-written from any data source) and
// run the paper's core analyses on it — Pareto shares, the truncated
// power-law fit, MLE cross-check, update statistics, and the three-model
// ranking. If no --db directory is given, the example first builds one by
// generating a store, serving it over HTTP and crawling it, so it always
// has something to analyze.
//
//   $ ./analyze_crawl [--db path/to/crawl-csv]
#include <cstdio>
#include <filesystem>

#include "crawler/crawler.hpp"
#include "crawler/db_io.hpp"
#include "crawler/service.hpp"
#include "fit/sweep.hpp"
#include "report/table.hpp"
#include "stats/mle.hpp"
#include "stats/pareto.hpp"
#include "stats/powerlaw.hpp"
#include "synth/generator.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace appstore;

  util::Cli cli("analyze_crawl", "run the paper's analyses on a crawl-database CSV");
  auto seed = cli.u64("seed", 29, "PRNG seed (for the demo crawl and model fits)");
  auto db_dir = cli.str("db", "", "crawl database directory (apps.csv + observations.csv)");
  cli.parse(argc, argv);

  crawlersim::CrawlDatabase database;
  if (db_dir->empty()) {
    // Demo path: generate -> serve -> crawl -> save -> reload.
    std::printf("no --db given; crawling a generated store first...\n");
    // d (downloads/user) must stay small relative to the catalog for the
    // model comparison to be meaningful — raise the user share accordingly.
    synth::StoreProfile profile = synth::anzhi();
    profile.free_segment.top_app_share = 0.02;
    synth::GeneratorConfig config;
    config.seed = *seed;
    config.app_scale = 0.02;
    config.download_scale = 2e-5;
    const auto generated = synth::generate(profile, config);
    crawlersim::AppstoreService service(*generated.store, crawlersim::ServicePolicy{});
    crawlersim::CrawlerOptions crawler_config;
    crawler_config.port = service.port();
    crawler_config.fetch_apks = true;
    crawlersim::Crawler crawler(crawler_config, database);
    for (const market::Day day : {0, 30, 60}) {
      service.set_day(day);
      (void)crawler.crawl_day(day);
    }
    const auto demo_dir = std::filesystem::temp_directory_path() / "appstore_demo_crawl";
    crawlersim::save_database(database, demo_dir);
    database = crawlersim::load_database(demo_dir);  // prove the round trip
    std::printf("crawl saved to %s and reloaded\n\n", demo_dir.string().c_str());
  } else {
    database = crawlersim::load_database(*db_dir);
  }

  const auto days = database.crawl_days();
  if (days.empty()) {
    std::fprintf(stderr, "database has no observations\n");
    return 1;
  }
  const market::Day last_day = days.back();
  std::printf("database: %zu apps, %zu crawl days (last = %d)\n\n", database.app_count(),
              days.size(), last_day);

  // §3: popularity.
  const auto measured = database.downloads_by_rank(last_day);
  report::Table popularity({"metric", "value"});
  popularity.row({"top 1% download share", report::percent(stats::top_share(measured, 0.01))});
  popularity.row({"top 10% download share", report::percent(stats::top_share(measured, 0.10))});
  const auto truncation = stats::analyze_truncation(measured);
  popularity.row({"trunk exponent (LSQ)", report::fixed(truncation.trunk.exponent, 2)});
  popularity.row({"trunk R^2", report::fixed(truncation.trunk.r_squared, 3)});
  popularity.row({"head ratio", report::fixed(truncation.head_ratio, 3)});
  popularity.row({"tail ratio", report::fixed(truncation.tail_ratio, 3)});
  const auto mle = stats::fit_power_law_mle_auto(measured);
  popularity.row({"MLE alpha (size dist)", report::fixed(mle.alpha, 2)});
  popularity.row({"MLE implied rank slope ~1/(a-1)",
                  report::fixed(mle.alpha > 1.0 ? 1.0 / (mle.alpha - 1.0) : 0.0, 2)});
  std::printf("popularity (Figs. 2/3):\n%s\n", popularity.render().c_str());

  // Fig. 4: updates from version deltas.
  const auto updates = database.updates_per_app();
  std::size_t zero = 0;
  for (const double u : updates) {
    if (u == 0.0) ++zero;
  }
  std::printf("updates (Fig. 4): %zu apps, %.1f%% with zero updates across the window\n",
              updates.size(),
              updates.empty() ? 0.0 : 100.0 * static_cast<double>(zero) / updates.size());

  // §6.3: ad-library scan results, if APKs were crawled.
  const double ads_fraction = database.free_apps_with_ads_fraction();
  if (ads_fraction > 0.0) {
    std::printf("APK scans (§6.3): %.1f%% of scanned free apps embed ad libraries "
                "(paper: 67.7%%)\n",
                100.0 * ads_fraction);
  }

  // §5: model ranking against the crawled curve.
  fit::SweepOptions options;
  options.zr_grid = {1.0, 1.2, 1.4, 1.6, 1.8};
  options.p_grid = {0.9};
  options.zc_grid = {1.4};
  options.seed = *seed + 1;
  const auto users = static_cast<std::uint64_t>(measured.front());
  report::Table models_table({"model", "Eq.6 distance"});
  for (const auto kind : {models::ModelKind::kZipf, models::ModelKind::kZipfAtMostOnce,
                          models::ModelKind::kAppClustering}) {
    const auto result = fit::fit_model(kind, measured, users, 34, options);
    models_table.row({std::string(to_string(kind)), report::fixed(result.distance, 3)});
  }
  std::printf("\nmodel fits (Figs. 8/9), U = top-app downloads = %llu:\n%s",
              static_cast<unsigned long long>(users), models_table.render().c_str());
  return 0;
}

// Ablation: category prefetching (§7 "Effective prefetching").
//
// Wraps an LRU cache with PrefetchingCache (after each access, admit the
// top-N most popular uncached apps of the accessed category) and measures
// the demand hit ratio under the three workload models, against plain LRU
// on the identical request stream. The clustering-driven workload should
// benefit the most — that is exactly the paper's prefetching argument.
#include "common.hpp"

#include "cache/prefetch.hpp"
#include "cache/sim.hpp"
#include "models/stream.hpp"

int main(int argc, char** argv) {
  using namespace appstore;
  benchx::BenchCli cli("bench_ablation_prefetch",
                       "Ablation: category prefetching on top of LRU");
  auto scale = cli.raw().f64("cache-scale", 0.05, "fraction of the paper's 60k-app setup");
  auto per_hit = cli.raw().u64("prefetch", 3, "apps prefetched per access");
  cli.parse(argc, argv);

  benchx::print_heading("Ablation — category prefetching (§7)",
                        "prefetching popular same-category apps should recover part of "
                        "the LRU hit ratio the clustering effect destroys");

  // Fig.-19 setup.
  models::ModelParams params;
  params.app_count = static_cast<std::uint32_t>(std::max(100.0, 60'000.0 * *scale));
  params.user_count = static_cast<std::uint64_t>(std::max(100.0, 600'000.0 * *scale));
  params.downloads_per_user = 2'000'000.0 / 600'000.0;
  params.zr = 1.7;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;

  std::vector<std::uint32_t> app_category(params.app_count);
  for (std::uint32_t a = 0; a < params.app_count; ++a) app_category[a] = a % 30;

  report::Table table({"model", "cache %", "LRU", "LRU+prefetch", "prefetched apps"});
  report::Series series{"prefetch_hit_ratio",
                        {"model_index", "cache_percent", "lru", "lru_prefetch"},
                        {}};

  double model_index = 0.0;
  for (const auto kind : {models::ModelKind::kZipf, models::ModelKind::kZipfAtMostOnce,
                          models::ModelKind::kAppClustering}) {
    const auto model = models::make_model(kind, params);
    util::Rng rng(cli.seed());
    models::StreamOptions stream_options;
    stream_options.metrics = &cli.metrics();
    stream_options.threads = cli.threads();
    const events::EventLog stream = models::generate_stream_log(*model, rng, stream_options);

    for (const int percent : {1, 5, 10}) {
      const std::size_t size = std::max<std::size_t>(
          1, static_cast<std::size_t>(params.app_count) *
                 static_cast<std::size_t>(percent) / 100);

      cache::LruCache plain(size);
      const auto plain_result = cache::simulate(plain, stream, {.warm_top_n = size});

      cache::PrefetchingCache prefetching(std::make_unique<cache::LruCache>(size),
                                          app_category, *per_hit);
      const auto prefetch_result =
          cache::simulate(prefetching, stream, {.warm_top_n = size});

      table.row({std::string(to_string(kind)), std::to_string(percent) + "%",
                 report::percent(plain_result.hit_ratio()),
                 report::percent(prefetch_result.hit_ratio()),
                 std::to_string(prefetching.prefetched())});
      series.add({model_index, static_cast<double>(percent), plain_result.hit_ratio(),
                  prefetch_result.hit_ratio()});
    }
    model_index += 1.0;
  }
  benchx::print_table(table);
  report::export_all({series}, "ablation_prefetch");
  cli.dump_metrics();
  return 0;
}

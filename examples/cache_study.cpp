// Cache study: how an appstore front-end cache behaves under the three
// workload models and five replacement policies (§7 extended).
//
//   $ ./cache_study [--scale X] [--seed N]
#include <cstdio>

#include "core/study.hpp"
#include "report/table.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace appstore;

  util::Cli cli("cache_study", "app cache hit ratios by model and policy");
  auto seed = cli.u64("seed", 5, "PRNG seed");
  auto scale = cli.f64("scale", 0.03, "fraction of the paper's 60k-app cache setup");
  cli.parse(argc, argv);

  // Part 1: the Fig.-19 view — LRU under the three models.
  std::printf("LRU hit ratio by workload model (cache size as %% of apps):\n\n");
  report::Table by_model({"cache %", "ZIPF", "ZIPF-at-most-once", "APP-CLUSTERING"});
  std::vector<core::CacheStudyResult> model_results;
  for (const auto kind : {models::ModelKind::kZipf, models::ModelKind::kZipfAtMostOnce,
                          models::ModelKind::kAppClustering}) {
    model_results.push_back(
        core::cache_study(kind, {.scale = *scale, .policy = cache::PolicyKind::kLru,
                                 .seed = *seed}));
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                              std::size_t{19}}) {
    by_model.row({std::to_string(i + 1) + "%",
                  report::percent(model_results[0].points[i].hit_ratio),
                  report::percent(model_results[1].points[i].hit_ratio),
                  report::percent(model_results[2].points[i].hit_ratio)});
  }
  std::printf("%s\n", by_model.render().c_str());

  // Part 2: the repair — alternative policies under APP-CLUSTERING.
  std::printf("policy comparison under the APP-CLUSTERING workload:\n\n");
  report::Table by_policy({"cache %", "LRU", "FIFO", "LFU", "RANDOM", "CLUSTER-LRU"});
  std::vector<core::CacheStudyResult> policy_results;
  for (const auto policy : {cache::PolicyKind::kLru, cache::PolicyKind::kFifo,
                            cache::PolicyKind::kLfu, cache::PolicyKind::kRandom,
                            cache::PolicyKind::kClusterLru}) {
    policy_results.push_back(
        core::cache_study(models::ModelKind::kAppClustering,
                          {.scale = *scale, .policy = policy, .seed = *seed}));
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{4}, std::size_t{9},
                              std::size_t{19}}) {
    std::vector<std::string> row = {std::to_string(i + 1) + "%"};
    for (const auto& result : policy_results) {
      row.push_back(report::percent(result.points[i].hit_ratio));
    }
    by_policy.row(std::move(row));
  }
  std::printf("%s\n", by_policy.render().c_str());
  std::printf("Cache sizing note: the paper assumes uniform 3.5 MB APKs, so a 1%% cache "
              "of a 60k-app store is ~2.1 GB.\n");
  return 0;
}

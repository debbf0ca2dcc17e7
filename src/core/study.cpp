#include "core/study.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "affinity/strings.hpp"
#include "events/event_log.hpp"
#include "models/stream.hpp"
#include "par/parallel.hpp"

namespace appstore::core {

EcosystemStudy::EcosystemStudy(const synth::StoreProfile& profile,
                               const synth::GeneratorConfig& config)
    : profile_(profile), config_(config), generated_(synth::generate(profile, config)) {}

double EcosystemStudy::pareto_share(double fraction) const {
  return stats::top_share(store().download_counts(), fraction);
}

std::vector<stats::ShareCurvePoint> EcosystemStudy::pareto_curve() const {
  std::vector<double> percents(100);
  std::iota(percents.begin(), percents.end(), 1.0);
  return stats::share_curve(store().download_counts(), percents);
}

stats::TruncationReport EcosystemStudy::popularity_fit(
    std::optional<market::Pricing> pricing) const {
  const std::vector<double> ranks = pricing.has_value()
                                        ? store().downloads_by_rank(*pricing)
                                        : store().downloads_by_rank();
  return stats::analyze_truncation(ranks);
}

std::vector<double> EcosystemStudy::updates_per_app(bool top_decile_only) const {
  const auto& apps = store().apps();
  std::vector<std::size_t> candidates(apps.size());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  if (top_decile_only) {
    std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
      return store().downloads_of(apps[a].id) > store().downloads_of(apps[b].id);
    });
    candidates.resize(std::max<std::size_t>(1, candidates.size() / 10));
  }
  std::vector<double> updates;
  updates.reserve(candidates.size());
  for (const auto index : candidates) {
    updates.push_back(static_cast<double>(apps[index].update_days.size()));
  }
  return updates;
}

std::vector<std::vector<std::uint32_t>> EcosystemStudy::category_strings() const {
  std::vector<std::uint32_t> app_category;
  app_category.reserve(store().apps().size());
  for (const auto& app : store().apps()) app_category.push_back(app.category.value);

  // Zero-copy walk over the store's CSR comment index: one UserStreamView
  // per user instead of materializing per-user event vectors.
  std::vector<std::vector<std::uint32_t>> result;
  for (std::uint32_t u = 0; u < store().user_count(); ++u) {
    const auto stream = store().comment_stream(market::UserId{u});
    if (stream.empty()) continue;
    const auto apps = affinity::app_string(stream);
    if (apps.empty()) continue;
    result.push_back(affinity::category_string(apps, app_category));
  }
  return result;
}

double EcosystemStudy::random_walk_affinity(std::size_t depth) const {
  const auto counts32 = store().apps_per_category();
  std::vector<std::uint64_t> counts(counts32.begin(), counts32.end());
  return affinity::random_walk_affinity(counts, depth);
}

fit::FitResult EcosystemStudy::fit(models::ModelKind kind, market::Day day,
                                   const fit::SweepOptions& options) const {
  const auto measured =
      synth::downloads_by_rank_at_day(store(), day, market::Pricing::kFree);
  const auto users = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(measured.empty() ? 1.0 : measured.front()));
  return fit::fit_model(kind, measured, users,
                        static_cast<std::uint32_t>(store().categories().size()), options);
}

market::DatasetSummary EcosystemStudy::dataset_summary() const {
  const auto series = market::replay_snapshots(store(), profile_.crawl_days);
  return market::summarize(store().name(), series);
}

namespace {

/// §7 setup: 60,000 apps in 30 categories, 600,000 users, 2M downloads,
/// zr = 1.7, zc = 1.4, p = 0.9; cache sizes 1%..20% of apps.
struct Fig19Workload {
  models::ModelParams params;
  events::EventLog stream{events::Columns::kNone};  ///< columnar request stream
  std::vector<std::uint32_t> app_category;
  std::vector<std::size_t> sizes;
};

[[nodiscard]] Fig19Workload fig19_workload(models::ModelKind kind,
                                           const CacheStudyOptions& options) {
  Fig19Workload workload;
  models::ModelParams& params = workload.params;
  params.app_count = static_cast<std::uint32_t>(std::max(100.0, 60'000.0 * options.scale));
  params.user_count = static_cast<std::uint64_t>(std::max(100.0, 600'000.0 * options.scale));
  params.downloads_per_user = 2'000'000.0 / 600'000.0;
  params.zr = 1.7;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;

  const auto model = models::make_model(kind, params);
  util::Rng rng(options.seed);
  workload.stream = models::generate_stream_log(
      *model, rng,
      models::StreamOptions{.metrics = options.metrics, .threads = options.threads});

  workload.app_category.resize(params.app_count);
  for (std::uint32_t a = 0; a < params.app_count; ++a) {
    workload.app_category[a] = a % params.cluster_count;  // round-robin layout
  }

  for (int percent = 1; percent <= 20; ++percent) {
    workload.sizes.push_back(std::max<std::size_t>(
        1, static_cast<std::size_t>(params.app_count) * static_cast<std::size_t>(percent) /
               100));
  }
  return workload;
}

}  // namespace

CacheStudyResult cache_study(models::ModelKind kind, const CacheStudyOptions& options) {
  const Fig19Workload workload = fig19_workload(kind, options);
  CacheStudyResult result;
  result.model = kind;
  result.points =
      cache::sweep_cache_sizes(options.policy, workload.sizes, workload.stream,
                               workload.app_category, options.seed, options.metrics,
                               options.threads);
  return result;
}

std::vector<PolicyStudyResult> cache_policy_study(models::ModelKind kind,
                                                  std::span<const cache::PolicyKind> policies,
                                                  const CacheStudyOptions& options) {
  const Fig19Workload workload = fig19_workload(kind, options);
  const std::size_t size_count = workload.sizes.size();

  // One simulation task per policy×size cell over the shared stream (the
  // stream is generated once, not once per policy).
  const par::Options par_options{.threads = options.threads, .grain = 1,
                                 .metrics = options.metrics};
  const std::vector<double> ratios = par::parallel_map<double>(
      policies.size() * size_count, par_options, [&](std::uint64_t task) {
        const cache::PolicyKind policy = policies[static_cast<std::size_t>(task / size_count)];
        const std::size_t size = workload.sizes[static_cast<std::size_t>(task % size_count)];
        const auto instance =
            cache::make_policy(policy, size, workload.app_category, options.seed);
        return cache::simulate(*instance, workload.stream,
                               cache::SimOptions{.warm_top_n = size,
                                                 .metrics = options.metrics})
            .hit_ratio();
      });

  std::vector<PolicyStudyResult> results;
  results.reserve(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    PolicyStudyResult result;
    result.policy = policies[p];
    result.points.reserve(size_count);
    for (std::size_t s = 0; s < size_count; ++s) {
      result.points.push_back(
          cache::SweepPoint{workload.sizes[s], ratios[p * size_count + s]});
    }
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace appstore::core

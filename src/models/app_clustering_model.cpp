#include "models/app_clustering_model.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "models/zipf_amo_model.hpp"  // FetchedSet, draw_unfetched

namespace appstore::models {

namespace {

class ClusteringSession final : public Session {
 public:
  explicit ClusteringSession(const AppClusteringModel& model)
      : model_(model),
        fetched_(model.params().app_count),
        cluster_fetched_(model.layout().cluster_count(), 0) {}

  [[nodiscard]] std::uint32_t next(util::Rng& rng) override {
    const auto& layout = model_.layout();
    const auto global_draw = [&] {
      return draw_unfetched(rng, fetched_, [this](util::Rng& r) {
        return static_cast<std::uint32_t>(model_.global_sampler().sample_index(r));
      });
    };
    std::uint32_t app = 0;
    if (fetched_.size() == 0 || !rng.chance(model_.params().p)) {
      // Step 1 / step 2.2: global ZG draw, fetch-at-most-once.
      app = global_draw();
    } else {
      // Step 2.1: revisit the cluster of a uniformly-chosen previous
      // download. If that cluster is fully fetched, re-anchor on another
      // previous download; after a few failures fall back to a global draw
      // (the user has saturated their neighbourhoods).
      app = model_.params().app_count;  // sentinel
      for (int anchor_attempt = 0; anchor_attempt < 8; ++anchor_attempt) {
        const std::uint32_t anchor =
            fetched_[static_cast<std::size_t>(rng.below(fetched_.size()))];
        const std::uint32_t cluster = layout.cluster_of(anchor);
        const auto& members = layout.members(cluster);
        if (cluster_fetched_[cluster] >= members.size()) continue;
        const auto& sampler = model_.sampler_for_cluster(cluster);
        app = draw_unfetched_member(rng, fetched_, members, cluster_fetched_[cluster],
                                    [&sampler](util::Rng& r) { return sampler.sample_index(r); });
        break;
      }
      if (app == model_.params().app_count) app = global_draw();
    }
    fetched_.insert(app);
    ++cluster_fetched_[layout.cluster_of(app)];
    return app;
  }

  [[nodiscard]] bool exhausted() const noexcept override {
    return fetched_.size() >= fetched_.universe();
  }

  void reset() noexcept override {
    const auto& layout = model_.layout();
    for (std::size_t i = 0; i < fetched_.size(); ++i) {
      cluster_fetched_[layout.cluster_of(fetched_[i])] = 0;
    }
    fetched_.reset();
  }

 private:
  const AppClusteringModel& model_;
  FetchedSet fetched_;
  /// Fetched apps per cluster: a saturated anchor cluster is an O(1) test,
  /// and the member fallback needs no count of its own.
  std::vector<std::uint32_t> cluster_fetched_;
};

}  // namespace

AppClusteringModel::AppClusteringModel(ModelParams params, ClusterLayout layout)
    : params_(params), layout_(std::move(layout)) {
  if (params_.app_count == 0) throw std::invalid_argument("AppClusteringModel: no apps");
  if (layout_.app_count() != params_.app_count) {
    throw std::invalid_argument("AppClusteringModel: layout/app_count mismatch");
  }
  if (params_.p < 0.0 || params_.p > 1.0) {
    throw std::invalid_argument("AppClusteringModel: p outside [0,1]");
  }
  params_.cluster_count = layout_.cluster_count();
  global_ = std::make_shared<const stats::ZipfSampler>(params_.app_count, params_.zr);
  // Eager per-size Zc samplers: a layout has few distinct cluster sizes
  // (round-robin: at most two), and building them here keeps the model
  // immutable — concurrent sessions share it without synchronization.
  std::map<std::uint32_t, const stats::ZipfSampler*> by_size;
  by_cluster_.reserve(layout_.cluster_count());
  for (const auto& members : layout_.all_members()) {
    const auto size = static_cast<std::uint32_t>(members.size());
    const stats::ZipfSampler* sampler = nullptr;
    if (size != 0) {
      const stats::ZipfSampler*& shared = by_size[size];
      if (shared == nullptr) {
        cluster_samplers_.push_back(std::make_unique<const stats::ZipfSampler>(size, params_.zc));
        shared = cluster_samplers_.back().get();
      }
      sampler = shared;
    }
    by_cluster_.push_back(sampler);
  }
}

std::unique_ptr<Session> AppClusteringModel::new_session() const {
  return std::make_unique<ClusteringSession>(*this);
}

std::vector<double> AppClusteringModel::expected_downloads() const {
  const stats::FiniteZipf global(params_.app_count, params_.zr);
  // Per-cluster-size normalizers, cached by size.
  std::map<std::uint32_t, double> harmonic_by_size;

  std::vector<double> expected(params_.app_count);
  const double users = static_cast<double>(params_.user_count);
  const double global_draws = (1.0 - params_.p) * params_.downloads_per_user;
  const double cluster_draws = params_.p * params_.downloads_per_user;

  for (std::uint32_t app = 0; app < params_.app_count; ++app) {
    const double pg = global.pmf(app + 1);  // global rank i = app index + 1

    const std::uint32_t cluster = layout_.cluster_of(app);
    const auto size = static_cast<std::uint32_t>(layout_.members(cluster).size());
    auto it = harmonic_by_size.find(size);
    if (it == harmonic_by_size.end()) {
      it = harmonic_by_size.emplace(size, stats::generalized_harmonic(size, params_.zc)).first;
    }
    const double pc =
        std::pow(static_cast<double>(layout_.within_rank(app)), -params_.zc) / it->second;

    expected[app] = users * (1.0 - std::pow(1.0 - pg, global_draws) *
                                       std::pow(1.0 - pc, cluster_draws));
  }
  return expected;
}

}  // namespace appstore::models

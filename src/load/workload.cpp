#include "load/workload.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "models/params.hpp"
#include "stats/zipf.hpp"
#include "util/rng.hpp"

namespace appstore::load {

std::string_view to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kMeta: return "meta";
    case OpKind::kApps: return "apps";
    case OpKind::kApp: return "app";
    case OpKind::kComments: return "comments";
    case OpKind::kQuery: return "query";
  }
  return "?";
}

std::size_t Schedule::total_requests() const noexcept {
  std::size_t total = 0;
  for (const auto& client : per_client) total += client.size();
  return total;
}

namespace {

/// Samples app ids with the clustered-Zipf structure of §5: with probability
/// p the draw stays in the previous app's cluster (within-cluster Zipf Zc
/// over the members in popularity order), otherwise the global Zipf ZG picks
/// by global rank. Samplers are built once and shared across clients — each
/// client only carries its RNG and its own previous-app state, so schedules
/// stay a pure function of the per-client seed.
class AppPicker {
 public:
  explicit AppPicker(const MixOptions& mix)
      : mix_(mix),
        layout_(models::ClusterLayout::round_robin(mix.app_count, mix.cluster_count)),
        global_(mix.app_count, mix.zr) {
    // Round-robin clusters have at most two distinct sizes (±1).
    for (std::uint32_t c = 0; c < layout_.cluster_count(); ++c) {
      const auto size = static_cast<std::uint64_t>(layout_.members(c).size());
      if (size > 0) within_.try_emplace(size, size, mix.zc);
    }
  }

  [[nodiscard]] std::uint32_t pick(util::Rng& rng, std::uint32_t& previous) const {
    std::uint32_t app = 0;
    if (previous < mix_.app_count && rng.chance(mix_.p)) {
      const auto& members = layout_.members(layout_.cluster_of(previous));
      const auto& sampler = within_.at(static_cast<std::uint64_t>(members.size()));
      app = members[sampler.sample_index(rng)];
    } else {
      app = static_cast<std::uint32_t>(global_.sample_index(rng));
    }
    previous = app;
    return app;
  }

 private:
  MixOptions mix_;
  models::ClusterLayout layout_;
  stats::ZipfSampler global_;
  std::map<std::uint64_t, stats::ZipfSampler> within_;  ///< by cluster size
};

}  // namespace

Schedule build_schedule(const ScheduleOptions& options) {
  const MixOptions& mix = options.mix;
  if (mix.app_count == 0) throw std::invalid_argument("build_schedule: app_count == 0");
  if (mix.cluster_count == 0) {
    throw std::invalid_argument("build_schedule: cluster_count == 0");
  }
  const double weights[kOpKindCount] = {mix.meta_weight, mix.apps_weight, mix.app_weight,
                                        mix.comments_weight, mix.query_weight};
  double total_weight = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("build_schedule: negative weight");
    total_weight += w;
  }
  if (total_weight <= 0.0) throw std::invalid_argument("build_schedule: zero weights");

  const AppPicker picker(mix);
  const std::uint32_t pages = mix.directory_pages == 0 ? 1 : mix.directory_pages;

  Schedule schedule;
  schedule.options = options;
  schedule.per_client.resize(options.clients);
  for (std::uint32_t client = 0; client < options.clients; ++client) {
    util::Rng rng = util::rng::derive(options.seed, client);
    std::uint32_t previous = mix.app_count;  // sentinel: no previous app yet
    double arrival_seconds = 0.0;
    auto& requests = schedule.per_client[client];
    requests.reserve(options.requests_per_client);
    for (std::uint32_t i = 0; i < options.requests_per_client; ++i) {
      Request request;
      const double roll = rng.uniform() * total_weight;
      double cumulative = 0.0;
      std::size_t op = kOpKindCount - 1;
      for (std::size_t k = 0; k < kOpKindCount; ++k) {
        cumulative += weights[k];
        if (roll < cumulative) {
          op = k;
          break;
        }
      }
      request.kind = static_cast<OpKind>(op);
      switch (request.kind) {
        case OpKind::kMeta:
          request.target = "/api/v1/meta";
          break;
        case OpKind::kApps:
          request.target = "/api/v1/apps?page=" + std::to_string(rng.below(pages)) +
                           "&per_page=" + std::to_string(mix.per_page);
          break;
        case OpKind::kApp:
          request.target = "/api/v1/app/" + std::to_string(picker.pick(rng, previous));
          break;
        case OpKind::kComments:
          request.target =
              "/api/v1/app/" + std::to_string(picker.pick(rng, previous)) + "/comments?page=0";
          break;
        case OpKind::kQuery:
          // Rotate over the aggregate kinds; the top-k form carries a
          // user-selective filter (the planner's index-scan case), the rest
          // are store-wide and hit the per-day response cache.
          switch (rng.below(4)) {
            case 0:
              request.target = "/api/v1/query?kind=top_k_downloads&k=10&filter=user==" +
                               std::to_string(rng.below(mix.query_user_count == 0
                                                            ? 1
                                                            : mix.query_user_count));
              break;
            case 1:
              request.target = "/api/v1/query?kind=pareto_share";
              break;
            case 2:
              request.target = "/api/v1/query?kind=category_affinity&depths=1";
              break;
            default:
              request.target = "/api/v1/query?kind=rank_download_curve&points=50";
              break;
          }
          break;
      }
      if (options.open_loop_rate_hz > 0.0) {
        // Poisson arrivals: exponential inter-arrival gaps at the target
        // rate, accumulated so arrivals are strictly increasing.
        const double gap =
            -std::log1p(-rng.uniform()) / options.open_loop_rate_hz;
        arrival_seconds += gap;
        request.arrival =
            std::chrono::nanoseconds(static_cast<std::int64_t>(arrival_seconds * 1e9));
      }
      requests.push_back(std::move(request));
    }
  }
  return schedule;
}

}  // namespace appstore::load

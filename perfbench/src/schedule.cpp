#include "schedule.hpp"

#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string_view>

#include "models/params.hpp"
#include "stats/zipf.hpp"
#include "util/rng.hpp"

namespace perfbench {

using appstore::util::Rng;

namespace {

// The offered mix. NOTES.md records the measurement behind each value.
/// Endpoint shares (sum 1), in Endpoint order. app : comments is the
/// crawler's measured 1 : 1; meta and directory pages get a floor of 1 %
/// so their handlers are sampled; queries get 20 %.
constexpr std::array<double, kEndpointCount> kEndpointShare = {0.01, 0.01, 0.39, 0.39, 0.20};
/// Share of queries whose filter pins one user (an index scan); the rest
/// carry a category or day-range filter (column scans), half each.
constexpr double kSelectiveShare = 0.5;
/// Clustered-Zipf popularity of app targets (Table 2 notation): the
/// APP-CLUSTERING fit of the crawled store.
constexpr double kZr = 1.6;
constexpr double kP = 0.85;
constexpr double kZc = 1.3;

/// Drawn with equal shares.
constexpr std::array<std::string_view, 4> kQueryKinds = {
    "top_k_downloads", "pareto_share", "category_affinity", "rank_download_curve"};

/// Draws app targets: with probability p the next app stays in the previous
/// app's cluster (within-cluster Zipf zc), otherwise a global Zipf zr pick.
class AppPicker {
 public:
  explicit AppPicker(const StoreShape& shape)
      : ids_(shape.app_ids),
        layout_(appstore::models::ClusterLayout::round_robin(
            static_cast<std::uint32_t>(ids_.size()), shape.category_count)),
        global_(ids_.size(), kZr) {
    for (std::uint32_t c = 0; c < layout_.cluster_count(); ++c) {
      const auto size = static_cast<std::uint64_t>(layout_.members(c).size());
      if (size > 0) within_.try_emplace(size, size, kZc);
    }
  }

  /// Returns an app id; `previous` carries the last pick's index.
  [[nodiscard]] std::uint32_t pick(Rng& rng, std::uint32_t& previous) const {
    std::uint32_t app = 0;
    if (previous < ids_.size() && rng.chance(kP)) {
      const auto& members = layout_.members(layout_.cluster_of(previous));
      app = members[within_.at(members.size()).sample_index(rng)];
    } else {
      app = static_cast<std::uint32_t>(global_.sample_index(rng));
    }
    previous = app;
    return ids_[app];
  }

 private:
  std::vector<std::uint32_t> ids_;
  appstore::models::ClusterLayout layout_;
  appstore::stats::ZipfSampler global_;
  std::map<std::uint64_t, appstore::stats::ZipfSampler> within_;
};

struct Generator {
  const StoreShape& shape;
  AppPicker picker;

  Op next(Rng& rng, std::uint32_t& previous) const {
    Op op;
    double roll = rng.uniform();
    std::size_t e = kEndpointCount - 1;
    for (std::size_t k = 0; k < kEndpointCount; ++k) {
      if (roll < kEndpointShare[k]) {
        e = k;
        break;
      }
      roll -= kEndpointShare[k];
    }
    op.endpoint = static_cast<Endpoint>(e);
    const auto listed = static_cast<std::uint32_t>(shape.app_ids.size());
    const std::uint32_t pages = std::max<std::uint32_t>(1, (listed + shape.per_page - 1) / shape.per_page);
    switch (op.endpoint) {
      case Endpoint::kMeta:
        op.target = "/api/v1/meta";
        break;
      case Endpoint::kApps:
        op.target = "/api/v1/apps?page=" + std::to_string(rng.below(pages)) +
                    "&per_page=" + std::to_string(shape.per_page);
        break;
      case Endpoint::kApp:
        op.target = "/api/v1/app/" + std::to_string(picker.pick(rng, previous));
        break;
      case Endpoint::kComments:
        op.target =
            "/api/v1/app/" + std::to_string(picker.pick(rng, previous)) + "/comments?page=0";
        break;
      case Endpoint::kQuery:
        op.target = query_target(rng);
        break;
    }
    return op;
  }

  std::string query_target(Rng& rng) const {
    const std::string_view kind = kQueryKinds[rng.below(kQueryKinds.size())];
    std::string target = "/api/v1/query?kind=" + std::string(kind);
    if (kind == "top_k_downloads") target += "&k=10";
    if (kind == "category_affinity") target += "&depths=1,2";
    if (kind == "rank_download_curve") target += "&points=50";
    std::string filter;
    if (rng.chance(kSelectiveShare)) {
      filter = "user==" + std::to_string(rng.below(shape.user_count));
    } else if (rng.chance(0.5)) {
      filter = "category==" + std::to_string(rng.below(shape.category_count));
    } else {
      const auto span = static_cast<std::uint64_t>(std::max(shape.last_day, 0)) + 1;
      const auto lo = static_cast<std::int64_t>(rng.below(span));
      const auto hi = lo + static_cast<std::int64_t>(rng.below(span - lo));
      filter = "day>=" + std::to_string(lo) + "+and+day<=" + std::to_string(hi);
    }
    return target + "&filter=" + filter;
  }
};

void check_shape(const StoreShape& shape) {
  if (shape.app_ids.empty() || shape.category_count == 0 || shape.user_count == 0 ||
      shape.per_page == 0) {
    throw std::invalid_argument("schedule: empty store shape");
  }
}

}  // namespace

std::vector<std::vector<Op>> build_open_loop(std::uint64_t seed, const StoreShape& shape,
                                             std::size_t clients, double rate_hz,
                                             double duration_s) {
  check_shape(shape);
  if (clients == 0 || rate_hz <= 0.0) throw std::invalid_argument("schedule: no load");
  const Generator generator{shape, AppPicker(shape)};
  const double per_client_hz = rate_hz / static_cast<double>(clients);
  std::vector<std::vector<Op>> out(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    Rng rng = appstore::util::rng::derive(seed, c);
    auto previous = static_cast<std::uint32_t>(shape.app_ids.size());  // none yet
    double at = 0.0;
    for (;;) {
      at += -std::log1p(-rng.uniform()) / per_client_hz;
      if (at >= duration_s) break;
      Op op = generator.next(rng, previous);
      op.due_ns = static_cast<std::int64_t>(at * 1e9);
      out[c].push_back(std::move(op));
    }
  }
  return out;
}

std::vector<std::vector<std::int64_t>> due_times(const std::vector<std::vector<Op>>& ops) {
  std::vector<std::vector<std::int64_t>> due(ops.size());
  for (std::size_t c = 0; c < ops.size(); ++c) {
    for (const Op& op : ops[c]) due[c].push_back(op.due_ns);
  }
  return due;
}

std::vector<std::int64_t> evenly_spaced(std::size_t count, double duration_s) {
  std::vector<std::int64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<std::int64_t>((static_cast<double>(i) + 0.5) * duration_s * 1e9 /
                                            static_cast<double>(count)));
  }
  return out;
}

}  // namespace perfbench

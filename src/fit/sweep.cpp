#include "fit/sweep.hpp"

#include "models/app_clustering_model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "par/parallel.hpp"
#include "stats/distance.hpp"
#include "util/logging.hpp"

namespace appstore::fit {

namespace {

constexpr std::string_view kComponent = "fit";

[[nodiscard]] double measured_total(std::span<const double> measured) {
  double total = 0.0;
  for (const double d : measured) total += d;
  return total;
}

}  // namespace

double evaluate_distance(const models::DownloadModel& model,
                         std::span<const double> measured_by_rank, std::uint64_t seed,
                         bool analytic, std::vector<double>* simulated_out) {
  std::vector<double> simulated;
  if (analytic) {
    simulated = model.expected_downloads();
  } else {
    util::Rng rng(seed);
    simulated = model.generate(rng).counts();
  }
  std::sort(simulated.begin(), simulated.end(), std::greater<>());
  simulated.resize(measured_by_rank.size(), 0.0);
  const double distance = stats::mean_relative_error(measured_by_rank, simulated);
  if (simulated_out != nullptr) *simulated_out = std::move(simulated);
  return distance;
}

FitResult fit_model(models::ModelKind kind, std::span<const double> measured_by_rank,
                    std::uint64_t users, std::uint32_t cluster_count,
                    const SweepOptions& options) {
  if (measured_by_rank.empty()) throw std::invalid_argument("fit_model: empty target");
  if (users == 0) throw std::invalid_argument("fit_model: zero users");

  FitResult result;
  result.kind = kind;
  result.distance = std::numeric_limits<double>::infinity();

  models::ModelParams base;
  base.app_count = static_cast<std::uint32_t>(measured_by_rank.size());
  base.user_count = users;
  base.downloads_per_user = measured_total(measured_by_rank) / static_cast<double>(users);
  base.cluster_count = cluster_count;

  const bool clustering = kind == models::ModelKind::kAppClustering;
  const std::vector<double> unit = {0.0};
  const auto& p_grid = clustering ? options.p_grid : unit;
  const auto& zc_grid = clustering ? options.zc_grid : unit;

  // Candidate cells in grid order; evaluated one task per cell. Each cell
  // builds its own model and uses the same seed the serial sweep would, so
  // per-cell distances — and therefore the selected minimum — are identical
  // at every thread count.
  std::vector<models::ModelParams> candidates;
  candidates.reserve(options.zr_grid.size() * p_grid.size() * zc_grid.size());
  for (const double zr : options.zr_grid) {
    for (const double p : p_grid) {
      for (const double zc : zc_grid) {
        models::ModelParams params = base;
        params.zr = zr;
        params.p = p;
        params.zc = zc;
        candidates.push_back(params);
      }
    }
  }

  if (candidates.empty()) return result;

  // Each task keeps its cell's rank curve if the cell is the best so far,
  // so the winner is never simulated twice. Cells compare on (distance,
  // index) — a tie goes to the lower index — which picks the same cell as
  // a serial `<` scan in grid order at any thread count; a cell without a
  // finite distance never wins. At most threads + 1 curves are alive.
  std::mutex best_mutex;
  std::size_t best_index = candidates.size();  // none yet
  std::vector<double> best_curve;
  const par::Options par_options{.threads = options.threads, .grain = 1};
  const std::vector<double> distances = par::parallel_map<double>(
      candidates.size(), par_options, [&](std::uint64_t i) {
        const auto model = models::make_model(kind, candidates[i]);
        std::vector<double> curve;
        const double distance = evaluate_distance(*model, measured_by_rank, options.seed,
                                                  options.analytic, &curve);
        const std::lock_guard lock(best_mutex);
        if (distance < result.distance ||
            (distance == result.distance && best_index < candidates.size() &&
             i < best_index)) {
          result.distance = distance;
          best_index = static_cast<std::size_t>(i);
          best_curve = std::move(curve);
        }
        return distance;
      });

  result.all.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const models::ModelParams& params = candidates[i];
    result.all.push_back(Candidate{params, distances[i]});
    util::log_debug(kComponent, "{} zr={} p={} zc={} -> distance {:.4f}", to_string(kind),
                    params.zr, params.p, params.zc, distances[i]);
  }
  if (best_index < candidates.size()) {
    result.best = candidates[best_index];
    result.simulated_by_rank = std::move(best_curve);
  }
  return result;
}

std::vector<UsersSweepPoint> sweep_users(models::ModelKind kind,
                                         std::span<const double> measured_by_rank,
                                         const models::ModelParams& params,
                                         std::span<const double> user_ratios,
                                         const UsersSweepOptions& options) {
  if (measured_by_rank.empty()) throw std::invalid_argument("sweep_users: empty target");
  const double top_downloads = measured_by_rank.front();
  const double total = measured_total(measured_by_rank);
  const std::uint32_t runs = options.analytic ? 1 : std::max<std::uint32_t>(1, options.replicates);

  // One task per (ratio, replicate): replicates of the slowest ratio spread
  // across threads instead of serializing behind it.
  const std::uint64_t task_count = user_ratios.size() * runs;
  const par::Options par_options{.threads = options.threads, .grain = 1};
  const std::vector<double> distances = par::parallel_map<double>(
      task_count, par_options, [&](std::uint64_t task) {
        const double ratio = user_ratios[static_cast<std::size_t>(task / runs)];
        const auto replicate = static_cast<std::uint32_t>(task % runs);
        const auto users =
            std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ratio * top_downloads));
        models::ModelParams candidate = params;
        candidate.app_count = static_cast<std::uint32_t>(measured_by_rank.size());
        candidate.user_count = users;
        candidate.downloads_per_user = total / static_cast<double>(users);
        std::unique_ptr<models::DownloadModel> model;
        if (kind == models::ModelKind::kAppClustering && options.layout != nullptr) {
          model = std::make_unique<models::AppClusteringModel>(candidate, *options.layout);
        } else {
          model = models::make_model(kind, candidate);
        }
        return evaluate_distance(*model, measured_by_rank, options.seed + replicate,
                                 options.analytic);
      });

  std::vector<UsersSweepPoint> points;
  points.reserve(user_ratios.size());
  for (std::size_t i = 0; i < user_ratios.size(); ++i) {
    const double ratio = user_ratios[i];
    const auto users =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(ratio * top_downloads));
    double distance = 0.0;
    for (std::uint32_t r = 0; r < runs; ++r) distance += distances[i * runs + r];
    points.push_back(UsersSweepPoint{ratio, users, distance / runs});
  }
  return points;
}

}  // namespace appstore::fit

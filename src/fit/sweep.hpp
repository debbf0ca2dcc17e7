// Model fitting by grid sweep (§5.2.1): "We tuned the parameters of each
// model to produce the best data fit, by running simulations with all
// parameter combinations, and measuring the distance from actual data."
//
// The measured target is a rank–download curve (descending). A candidate's
// distance is the Eq.-6 mean relative error between the measured curve and
// the candidate's simulated curve sorted the same way.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "models/model.hpp"

namespace appstore::fit {

struct Candidate {
  models::ModelParams params;
  double distance = 0.0;
};

struct FitResult {
  models::ModelKind kind = models::ModelKind::kZipf;
  models::ModelParams best;
  double distance = 0.0;
  /// Rank–download curve of the best candidate (descending), kept from the
  /// sweep's own run of that cell. Empty when no cell had a finite distance.
  std::vector<double> simulated_by_rank;
  /// Every evaluated candidate, for sensitivity plots.
  std::vector<Candidate> all;
};

struct SweepOptions {
  std::vector<double> zr_grid = {0.8, 1.0, 1.2, 1.4, 1.6, 1.8};
  std::vector<double> p_grid = {0.8, 0.9, 0.95};     // APP-CLUSTERING only
  std::vector<double> zc_grid = {1.2, 1.4, 1.6};     // APP-CLUSTERING only
  std::uint64_t seed = 0x5eed;
  /// Evaluate candidates with the analytic expectation instead of a Monte
  /// Carlo run — ~100x faster, slightly optimistic about noise.
  bool analytic = false;
  /// Worker threads for the grid sweep (one task per (zr, p, zc) cell);
  /// 0 = hardware_concurrency. Every cell is evaluated with the same seed as
  /// the serial sweep, so the selected cell and distances are identical at
  /// every thread count.
  std::size_t threads = 0;
};

/// Fits one model family to the measured curve. `users` and
/// `cluster_count` are fixed (the paper fixes U ≈ top-app downloads,
/// Fig. 10, and C = the store's category count); d is derived from the
/// measured total downloads and U.
[[nodiscard]] FitResult fit_model(models::ModelKind kind,
                                  std::span<const double> measured_by_rank,
                                  std::uint64_t users, std::uint32_t cluster_count,
                                  const SweepOptions& options);

/// Fig. 10: distance as a function of the user count, expressed as a ratio
/// of the downloads of the most popular app. Model parameters other than U
/// (and the derived d) are taken from `params`.
struct UsersSweepPoint {
  double user_ratio = 0.0;   ///< U / downloads of rank-1 app
  std::uint64_t users = 0;
  double distance = 0.0;
};

/// Options for sweep_users. `replicates` > 1 averages the distance over
/// several Monte Carlo seeds (seed, seed+1, ...) — the Eq.-6 distance of a
/// single realization is noisy enough near the minimum to shuffle the best
/// ratio otherwise. `layout` (optional) supplies the store's actual
/// app-to-category layout for APP-CLUSTERING candidates; without it a
/// round-robin layout with params.cluster_count equal clusters is used.
/// Matching the real category sizes matters here: an equal-cluster model
/// widens the fetch-at-most-once head plateau and biases the preferred user
/// count upward.
struct UsersSweepOptions {
  std::uint64_t seed = 0x5eed;
  bool analytic = false;
  std::uint32_t replicates = 1;
  const models::ClusterLayout* layout = nullptr;
  /// Worker threads (one task per (ratio, replicate) evaluation); 0 = all
  /// cores. Results are identical at every thread count.
  std::size_t threads = 0;
};

[[nodiscard]] std::vector<UsersSweepPoint> sweep_users(
    models::ModelKind kind, std::span<const double> measured_by_rank,
    const models::ModelParams& params, std::span<const double> user_ratios,
    const UsersSweepOptions& options);

/// Shared helper: Eq.-6 distance between a measured curve and a model
/// realization (Monte Carlo or analytic), comparing rank-by-rank.
[[nodiscard]] double evaluate_distance(const models::DownloadModel& model,
                                       std::span<const double> measured_by_rank,
                                       std::uint64_t seed, bool analytic,
                                       std::vector<double>* simulated_out = nullptr);

}  // namespace appstore::fit

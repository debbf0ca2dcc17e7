// EcosystemStudy: the high-level public API of the library.
//
// One object reproduces the paper's analysis pipeline for one appstore:
// generate (or accept) a marketplace, then query each analysis the paper
// performs — Pareto shares, power-law trunk fits, update statistics, the
// clustering-effect affinity study, model fitting, pricing/revenue analyses,
// and the cache study. Examples and benches compose these calls.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "affinity/metric.hpp"
#include "cache/sim.hpp"
#include "fit/sweep.hpp"
#include "market/snapshot.hpp"
#include "market/store.hpp"
#include "pricing/breakeven.hpp"
#include "pricing/income.hpp"
#include "pricing/strategies.hpp"
#include "stats/pareto.hpp"
#include "stats/powerlaw.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"

namespace appstore::core {

class EcosystemStudy {
 public:
  /// Generates a synthetic marketplace for `profile` with `config`.
  EcosystemStudy(const synth::StoreProfile& profile, const synth::GeneratorConfig& config);

  [[nodiscard]] const market::AppStore& store() const noexcept { return *generated_.store; }
  [[nodiscard]] const synth::GeneratedStore& generated() const noexcept { return generated_; }
  [[nodiscard]] const synth::StoreProfile& profile() const noexcept { return profile_; }

  // ---- §3: popularity ------------------------------------------------------

  /// Share of downloads owned by the top `fraction` of apps (Fig. 2).
  [[nodiscard]] double pareto_share(double fraction) const;

  /// Full share curve at integer rank percents 1..100.
  [[nodiscard]] std::vector<stats::ShareCurvePoint> pareto_curve() const;

  /// Trunk power-law fit of the rank–download curve (Fig. 3), optionally
  /// restricted to a pricing segment (Fig. 11).
  [[nodiscard]] stats::TruncationReport popularity_fit(
      std::optional<market::Pricing> pricing = std::nullopt) const;

  /// Updates per app over the window (Fig. 4); `top_decile_only` restricts
  /// to the 10% most downloaded apps (§3.2).
  [[nodiscard]] std::vector<double> updates_per_app(bool top_decile_only = false) const;

  // ---- §4: clustering effect -----------------------------------------------

  /// Per-user category strings from the comment streams (requires the
  /// generator config to have enabled comments).
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> category_strings() const;

  /// Eq. 4 baseline for this store's category sizes.
  [[nodiscard]] double random_walk_affinity(std::size_t depth) const;

  // ---- §5: model fitting -----------------------------------------------------

  /// Fits one model family against this store's measured curve at `day`
  /// (Fig. 8/9). Users default to the downloads of the top app (Fig. 10).
  [[nodiscard]] fit::FitResult fit(models::ModelKind kind, market::Day day,
                                   const fit::SweepOptions& options) const;

  // ---- Table 1 ---------------------------------------------------------------

  [[nodiscard]] market::DatasetSummary dataset_summary() const;

 private:
  synth::StoreProfile profile_;
  synth::GeneratorConfig config_;
  synth::GeneratedStore generated_;
};

/// Fig. 19 pipeline: generate a request stream from `kind` with the paper's
/// §7 parameters scaled by `scale`, then sweep LRU cache sizes.
struct CacheStudyResult {
  models::ModelKind model;
  std::vector<cache::SweepPoint> points;
};

/// Options for cache_study / cache_policy_study (the Options-struct API).
struct CacheStudyOptions {
  /// Fraction of the paper's 60k-app / 600k-user §7 setup.
  double scale = 0.05;
  cache::PolicyKind policy = cache::PolicyKind::kLru;
  std::uint64_t seed = 0x5eed;
  /// Receives the model-layer draw counters, the per-policy cache
  /// hit/miss/eviction families and the par_* families.
  obs::Registry* metrics = nullptr;
  /// Worker threads for stream generation and the size/policy sweeps;
  /// 0 = hardware_concurrency. Results are thread-count-invariant.
  std::size_t threads = 0;
};

[[nodiscard]] CacheStudyResult cache_study(models::ModelKind kind,
                                           const CacheStudyOptions& options);

/// Multi-policy ablation over ONE shared request stream: the stream for
/// `kind` is generated once (in parallel) and every policy×size simulation
/// runs as its own task. `options.policy` is ignored; results are returned
/// in `policies` order with identical values at every thread count.
struct PolicyStudyResult {
  cache::PolicyKind policy;
  std::vector<cache::SweepPoint> points;
};

[[nodiscard]] std::vector<PolicyStudyResult> cache_policy_study(
    models::ModelKind kind, std::span<const cache::PolicyKind> policies,
    const CacheStudyOptions& options);

}  // namespace appstore::core

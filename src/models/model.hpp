// DownloadModel: the common interface of the three §5 generators.
//
// Two usage modes:
//   * generate(rng): simulate every user to completion and return the
//     aggregate Workload (Figs. 8–10).
//   * new_session(): an incremental per-user generator that yields one app
//     per call — the cache simulation (Fig. 19) interleaves sessions of many
//     users into one request stream.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "models/params.hpp"
#include "models/workload.hpp"
#include "util/rng.hpp"

namespace appstore::models {

/// Incremental per-user download generator. Sessions are single-threaded and
/// hold one user's fetch-at-most-once history at a time.
class Session {
 public:
  virtual ~Session() = default;

  /// Draws the user's next download (0-based app index).
  /// Precondition: exhausted() is false.
  [[nodiscard]] virtual std::uint32_t next(util::Rng& rng) = 0;

  /// True when the user cannot download anything new (all apps fetched).
  [[nodiscard]] virtual bool exhausted() const noexcept = 0;

  /// Forgets the user's history, after which the session draws exactly as a
  /// fresh new_session() would. O(d) in the apps fetched since the last
  /// reset, so one session serves every user a worker simulates.
  virtual void reset() noexcept = 0;
};

enum class ModelKind : std::uint8_t { kZipf, kZipfAtMostOnce, kAppClustering };

class DownloadModel {
 public:
  virtual ~DownloadModel() = default;

  /// Display/metric-label name ("ZIPF", "ZIPF-at-most-once", "APP-CLUSTERING");
  /// always equal to to_string(kind()), so callers can label series without
  /// per-type switch statements.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual ModelKind kind() const noexcept = 0;
  [[nodiscard]] virtual const ModelParams& params() const noexcept = 0;

  /// Simulates all users; records per-user sequences when requested.
  [[nodiscard]] virtual Workload generate(util::Rng& rng, bool record_sequences = false) const;

  /// Creates a fresh user session.
  [[nodiscard]] virtual std::unique_ptr<Session> new_session() const = 0;

  /// Analytic expected downloads per app index, if the model has a closed
  /// form (all three do). Index a = global rank a+1.
  [[nodiscard]] virtual std::vector<double> expected_downloads() const = 0;

  /// Realizes the per-user download count: floor(d) plus a Bernoulli draw on
  /// the fractional part, capped by `cap` (fetch-at-most-once saturation).
  /// Public because stream generation realizes slots before creating sessions.
  [[nodiscard]] static std::uint64_t realized_downloads(double d, std::uint64_t cap,
                                                        util::Rng& rng) noexcept;
};

/// Uniform alias: every §5 generator is reachable through this interface
/// (make_model + kind()/name()), so benches and metric families never need
/// per-type switch statements.
using Model = DownloadModel;

[[nodiscard]] std::string_view to_string(ModelKind kind) noexcept;

/// All three §5 model kinds, in paper order — for benches that sweep every
/// model uniformly.
[[nodiscard]] std::span<const ModelKind> all_model_kinds() noexcept;

/// Factory. APP-CLUSTERING uses a round-robin layout built from
/// params.cluster_count; the dedicated constructor accepts custom layouts.
[[nodiscard]] std::unique_ptr<DownloadModel> make_model(ModelKind kind,
                                                        const ModelParams& params);

}  // namespace appstore::models

// ZIPF-at-most-once model (§5.2): downloads are drawn from the global Zipf
// distribution ZG, but a user never downloads the same app twice —
// already-fetched draws are rejected and redrawn (the "fetch-at-most-once"
// property of [Gummadi et al., SOSP'03]).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "models/model.hpp"
#include "stats/zipf.hpp"

namespace appstore::models {

class ZipfAtMostOnceModel final : public DownloadModel {
 public:
  explicit ZipfAtMostOnceModel(ModelParams params);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ZIPF-at-most-once";
  }
  [[nodiscard]] ModelKind kind() const noexcept override {
    return ModelKind::kZipfAtMostOnce;
  }
  [[nodiscard]] const ModelParams& params() const noexcept override { return params_; }
  [[nodiscard]] std::unique_ptr<Session> new_session() const override;

  /// E[D(i)] = U * (1 - (1 - pG(i))^d): each user fetches app i iff at least
  /// one of d independent ZG draws hits it. This treats rejection-redraws as
  /// fresh draws — exact in the d << A regime the paper (and we) simulate.
  [[nodiscard]] std::vector<double> expected_downloads() const override;

 private:
  ModelParams params_;
  std::shared_ptr<const stats::ZipfSampler> global_;
};

/// A user's fetch-at-most-once history: the fetched apps in fetch order
/// (APP-CLUSTERING anchors index into that order) plus an open-addressing
/// index over them, so contains() is O(1) expected instead of a scan of up
/// to d entries. Index slots hold a position in the fetch order plus one
/// (0 = empty), so every uint32 app id is storable. The table is a power of
/// two at most half full: memory is O(d). Exposed for tests.
class FetchedSet {
 public:
  [[nodiscard]] bool contains(std::uint32_t app) const noexcept {
    if (slots_.empty()) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t slot = home(app); slots_[slot] != 0; slot = (slot + 1) & mask) {
      if (fetched_[slots_[slot] - 1] == app) return true;
    }
    return false;
  }

  /// Precondition: !contains(app).
  void insert(std::uint32_t app);

  [[nodiscard]] std::size_t size() const noexcept { return fetched_.size(); }

  /// The `i`-th fetched app, in fetch order.
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept { return fetched_[i]; }

 private:
  /// Fibonacci hashing onto the table's top `bits_` bits.
  [[nodiscard]] std::size_t home(std::uint32_t app) const noexcept {
    return static_cast<std::uint32_t>(app * 0x9E3779B9u) >> (32 - bits_);
  }
  void place(std::uint32_t position);

  std::vector<std::uint32_t> fetched_;  ///< in fetch order (d entries)
  std::vector<std::uint32_t> slots_;    ///< position + 1 in fetched_, 0 = empty
  unsigned bits_ = 0;                   ///< slots_.size() == 1 << bits_
};

/// Fetch-at-most-once rejection sampling with a bounded retry loop: draws
/// from `sample(rng)` until the result is not in `fetched`. After
/// `max_retries` hits on already-fetched apps it falls back to a uniform draw
/// over the not-yet-fetched set (O(universe)), guaranteeing termination even
/// for pathological (tiny-A, huge-d) parameterizations. `universe` is the
/// number of candidate apps the sampler can produce, and `fetched_in_universe`
/// how many of them are already fetched (the caller keeps that tally);
/// precondition: fetched_in_universe < universe. Exposed for tests.
template <typename SampleFn, typename MapFn>
[[nodiscard]] std::uint32_t draw_unfetched(util::Rng& rng, const FetchedSet& fetched,
                                           std::uint32_t universe,
                                           std::uint32_t fetched_in_universe,
                                           SampleFn&& sample, MapFn&& map_index,
                                           int max_retries = 64) {
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    const std::uint32_t app = map_index(sample(rng));
    if (!fetched.contains(app)) return app;
  }
  // Fallback: uniformly choose among the remaining apps by skip-counting.
  const std::uint32_t remaining = universe - fetched_in_universe;
  std::uint32_t target = static_cast<std::uint32_t>(rng.below(remaining));
  for (std::uint32_t offset = 0; offset < universe; ++offset) {
    const std::uint32_t app = map_index(offset);
    if (fetched.contains(app)) continue;
    if (target == 0) return app;
    --target;
  }
  return map_index(universe - 1);  // unreachable if remaining > 0
}

}  // namespace appstore::models

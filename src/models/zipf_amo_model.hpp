// ZIPF-at-most-once model (§5.2): downloads are drawn from the global Zipf
// distribution ZG, but a user never downloads the same app twice —
// already-fetched draws are rejected and redrawn (the "fetch-at-most-once"
// property of [Gummadi et al., SOSP'03]).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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

/// A user's fetch-at-most-once history over the app universe [0, A): the
/// fetched apps in fetch order (APP-CLUSTERING anchors index into that order)
/// plus a bitmap over the universe, so contains() is one bit test. reset()
/// clears only the words that hold a fetched app, so a set reused across
/// users costs O(d) per user whatever A is; memory is O(d) plus A/64 words.
/// Exposed for tests.
class FetchedSet {
 public:
  explicit FetchedSet(std::uint32_t universe)
      : words_((std::size_t{universe} + 63) / 64, 0), universe_(universe) {}

  /// Precondition: app < universe().
  [[nodiscard]] bool contains(std::uint32_t app) const noexcept {
    return ((words_[app >> 6] >> (app & 63)) & 1) != 0;
  }

  /// Precondition: app < universe() and !contains(app).
  void insert(std::uint32_t app) {
    words_[app >> 6] |= std::uint64_t{1} << (app & 63);
    fetched_.push_back(app);
  }

  /// Empties the set in O(size()); afterwards it equals a fresh set.
  void reset() noexcept {
    for (const std::uint32_t app : fetched_) words_[app >> 6] = 0;
    fetched_.clear();
  }

  [[nodiscard]] std::uint32_t universe() const noexcept { return universe_; }
  [[nodiscard]] std::size_t size() const noexcept { return fetched_.size(); }

  /// The `i`-th fetched app, in fetch order.
  [[nodiscard]] std::uint32_t operator[](std::size_t i) const noexcept { return fetched_[i]; }

  /// The `target`-th (0-based) app of [0, universe()) in ascending order
  /// that is not in the set: a walk over the sorted fetched ids, O(d log d).
  /// Precondition: target < universe() - size().
  [[nodiscard]] std::uint32_t nth_unfetched(std::uint32_t target) const;

 private:
  std::vector<std::uint64_t> words_;    ///< bit a set iff app a is fetched
  std::vector<std::uint32_t> fetched_;  ///< in fetch order (d entries)
  std::uint32_t universe_;
};

/// Fetch-at-most-once rejection sampling with a bounded retry loop: draws
/// `draw(rng)` until the app is not in `fetched`, and after `max_retries`
/// hits on already-fetched apps returns `fallback(rng)`, a uniform draw over
/// the apps not yet fetched. The fallback guarantees termination even for
/// pathological (tiny-A, huge-d) parameterizations.
template <typename DrawFn, typename FallbackFn>
[[nodiscard]] std::uint32_t reject_fetched(util::Rng& rng, const FetchedSet& fetched,
                                           DrawFn&& draw, FallbackFn&& fallback,
                                           int max_retries) {
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    const std::uint32_t app = draw(rng);
    if (!fetched.contains(app)) return app;
  }
  return fallback(rng);
}

/// A fetch-at-most-once draw over the whole universe: `sample(rng)` yields an
/// app id. The fallback picks uniformly among the universe() - size() apps
/// left via FetchedSet::nth_unfetched. Precondition: size() < universe().
/// Exposed for tests.
template <typename SampleFn>
[[nodiscard]] std::uint32_t draw_unfetched(util::Rng& rng, const FetchedSet& fetched,
                                           SampleFn&& sample, int max_retries = 64) {
  return reject_fetched(
      rng, fetched, sample,
      [&fetched](util::Rng& r) {
        const auto remaining = static_cast<std::uint32_t>(fetched.universe() - fetched.size());
        return fetched.nth_unfetched(static_cast<std::uint32_t>(r.below(remaining)));
      },
      max_retries);
}

/// A fetch-at-most-once draw inside one cluster: `sample(rng)` yields an index
/// into `members`, `fetched_in_members` of which are already fetched (the
/// caller keeps that tally). The fallback skip-counts the members, one bit
/// test each. Precondition: fetched_in_members < members.size().
/// Exposed for tests.
template <typename SampleFn>
[[nodiscard]] std::uint32_t draw_unfetched_member(util::Rng& rng, const FetchedSet& fetched,
                                                  std::span<const std::uint32_t> members,
                                                  std::uint32_t fetched_in_members,
                                                  SampleFn&& sample, int max_retries = 64) {
  return reject_fetched(
      rng, fetched, [&](util::Rng& r) { return members[sample(r)]; },
      [&](util::Rng& r) {
        const auto remaining = static_cast<std::uint32_t>(members.size() - fetched_in_members);
        auto target = static_cast<std::uint32_t>(r.below(remaining));
        for (const std::uint32_t app : members) {
          if (fetched.contains(app)) continue;
          if (target == 0) return app;
          --target;
        }
        return members.back();  // unreachable if remaining > 0
      },
      max_retries);
}

}  // namespace appstore::models

// AppStore: the in-memory marketplace database.
//
// Owns all entities and event streams for one monitored store, maintains
// derived counters (per-app downloads, per-category app counts, average
// prices) and enforces cross-entity invariants: every event references valid
// IDs, download counts equal the number of download events, and per-user
// streams are chronologically ordered.
//
// Event storage is live and columnar: one events::LiveEventLog per event
// kind (downloads, comments). Writers (record_download, record_comment,
// ingest_downloads) append lock-free and publish through an atomic read
// frontier; readers take FrontierSnapshot views (download_log(),
// comment_log(), the *_stream() accessors) that are consistent prefixes of
// the log, with per-user chronological streams served by the tiered index —
// no build step, no stall. Ingest-while-serving contract:
//
//   * any number of threads may record/ingest events concurrently with any
//     number of snapshot readers;
//   * entity mutation (add_app, add_users, set_price, ...) is construction-
//     phase only — quiesce event writers around it;
//   * counters (downloads_of, total_downloads) are monitoring reads during
//     concurrent ingest: each is atomically updated, but they can run a few
//     events ahead of or behind the published frontier. check_invariants()
//     requires a quiesced store.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "events/event_log.hpp"
#include "events/live_log.hpp"
#include "market/entities.hpp"
#include "market/events.hpp"
#include "market/types.hpp"

namespace appstore::market {

class AppStore {
 public:
  /// `live` shapes both event logs (capacity, segment size, mmap backing —
  /// a non-empty backing_file gets ".downloads"/".comments" suffixes).
  explicit AppStore(std::string name, const events::LiveOptions& live = {});

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // --- construction -------------------------------------------------------

  CategoryId add_category(std::string name);
  DeveloperId add_developer(std::string name);
  UserId add_user();
  /// Adds `count` anonymous users at once; returns the first new id.
  UserId add_users(std::uint32_t count);

  /// Adds an app; `developer` and `category` must be valid.
  AppId add_app(std::string name, DeveloperId developer, CategoryId category, Pricing pricing,
                Cents price, Day released);

  /// Records an app update on `day` (Fig. 4 series).
  void record_update(AppId app, Day day);

  /// Records a download; increments the per-app counter. Lock-free; may run
  /// concurrently with other writers and with snapshot readers.
  void record_download(UserId user, AppId app, Day day);

  /// Records a rated comment (the affinity substrate, §4). Lock-free.
  void record_comment(UserId user, AppId app, Day day, std::uint8_t rating);

  /// Bulk download ingestion: validates and appends a column batch produced
  /// elsewhere (e.g. the shard-wise synth generator) as one atomically
  /// published block — readers see none or all of it. Ordinals are assigned
  /// by the store (row ids), so the result is bit-identical to the
  /// equivalent record_download() loop at any options.threads; a batch that
  /// carries an ordinal column is only validated against that sequence.
  /// Throws std::invalid_argument on any invalid id or ordinal mismatch.
  void ingest_downloads(const events::EventLog& batch,
                        const events::IngestOptions& options = {});

  /// Bulk comment ingestion — the comment-log twin of ingest_downloads
  /// (same validation, same atomic publication, same determinism contract).
  void ingest_comments(const events::EventLog& batch,
                       const events::IngestOptions& options = {});

  /// Replaces both live logs with pre-built ones — the checkpoint recovery
  /// fast path (load_segmented builds the logs straight from ALSG segments;
  /// re-ingesting them through ingest_* would pay the arena+index work a
  /// second time). Validates every event against the entity tables, then
  /// rebuilds the download counters from the adopted log. Requires a
  /// quiesced store; throws std::invalid_argument on a column-mask mismatch
  /// or an event with an out-of-range id (the store is left unchanged).
  void adopt_event_logs(std::unique_ptr<events::LiveEventLog> downloads,
                        std::unique_ptr<events::LiveEventLog> comments);

  /// Restores the price-observation accumulator exactly as a checkpoint
  /// recorded it (sum serialized as raw IEEE-754 bits, so recovery is
  /// bit-identical to the run that never crashed). Overwrites whatever
  /// add_app seeded. Recovery-only; throws on an invalid app.
  void restore_price_stats(AppId app, double price_sum_dollars,
                           std::uint32_t price_samples);

  /// Updates the list price of a paid app starting at `day`; the average
  /// price (used by the revenue analysis) is tracked per observed day.
  void set_price(AppId app, Cents price, Day day);

  /// Marks ad-library presence for an app (§6.3).
  void set_has_ads(AppId app, bool has_ads);

  // --- access --------------------------------------------------------------

  [[nodiscard]] std::span<const Category> categories() const noexcept { return categories_; }
  [[nodiscard]] std::span<const Developer> developers() const noexcept { return developers_; }
  [[nodiscard]] std::span<const App> apps() const noexcept { return apps_; }
  [[nodiscard]] std::uint32_t user_count() const noexcept { return user_count_; }

  [[nodiscard]] const Category& category(CategoryId id) const { return categories_.at(id.index()); }
  [[nodiscard]] const Developer& developer(DeveloperId id) const {
    return developers_.at(id.index());
  }
  [[nodiscard]] const App& app(AppId id) const { return apps_.at(id.index()); }

  [[nodiscard]] std::uint64_t downloads_of(AppId id) const;
  [[nodiscard]] std::uint64_t total_downloads() const noexcept;

  /// Mean of the price observations recorded via set_price/add_app — the
  /// paper uses the average price over the measurement window (§6.1).
  [[nodiscard]] double average_price_dollars(AppId id) const;

  /// Raw price-observation accumulator {sum of dollars, sample count} — the
  /// state checkpoints persist (restore_price_stats is its inverse).
  [[nodiscard]] std::pair<double, std::uint32_t> price_stats(AppId id) const {
    return {price_sum_dollars_.at(id.index()), price_samples_.at(id.index())};
  }

  // --- event access (columnar, frontier-consistent) -------------------------

  /// Snapshot of the download log's published prefix: user/app/day/ordinal
  /// columns in record order. Cheap (one atomic load); spans stay valid for
  /// the store's lifetime.
  [[nodiscard]] events::FrontierSnapshot download_log() const noexcept {
    return download_live_->snapshot();
  }
  /// Snapshot of the comment log (adds the rating column).
  [[nodiscard]] events::FrontierSnapshot comment_log() const noexcept {
    return comment_live_->snapshot();
  }

  /// The live stores themselves (frontier, capacity, arena introspection).
  [[nodiscard]] const events::LiveEventLog& download_live() const noexcept {
    return *download_live_;
  }
  [[nodiscard]] const events::LiveEventLog& comment_live() const noexcept {
    return *comment_live_;
  }

  /// Monotonic ingest epoch: advances whenever any event publishes. Two
  /// equal epochs bracket an identical published state — what the service
  /// keys its response cache on.
  [[nodiscard]] std::uint64_t ingest_epoch() const noexcept {
    return download_live_->frontier() + comment_live_->frontier();
  }

  /// Always true: the live store indexes as it ingests.
  [[nodiscard]] bool stream_index_built() const noexcept { return true; }

  /// Chronological per-user views over the current frontier.
  [[nodiscard]] events::LiveStreamView download_stream(UserId user) const {
    return download_live_->snapshot().stream(user.value);
  }
  [[nodiscard]] events::LiveStreamView comment_stream(UserId user) const {
    return comment_live_->snapshot().stream(user.value);
  }

  [[nodiscard]] std::span<const UpdateEvent> update_events() const noexcept {
    return update_events_;
  }

  /// Number of apps in each category (index = CategoryId).
  [[nodiscard]] std::vector<std::uint32_t> apps_per_category() const;

  /// Download counts per app (index = AppId), as doubles for the stats layer.
  [[nodiscard]] std::vector<double> download_counts() const;

  /// Download counts restricted to apps with the given pricing.
  [[nodiscard]] std::vector<double> download_counts(Pricing pricing) const;

  /// Download counts sorted descending — the rank–download curve of Fig. 3.
  [[nodiscard]] std::vector<double> downloads_by_rank() const;
  [[nodiscard]] std::vector<double> downloads_by_rank(Pricing pricing) const;

  /// Validates all invariants; throws std::logic_error with a description of
  /// the first violation. Used by tests and after deserialization. Requires
  /// a quiesced store (no in-flight writers).
  void check_invariants() const;

 private:
  std::string name_;
  std::vector<Category> categories_;
  std::vector<Developer> developers_;
  std::vector<App> apps_;
  std::uint32_t user_count_ = 0;

  std::vector<std::uint64_t> downloads_;      // per app; atomic_ref-updated
  std::uint64_t total_downloads_ = 0;         // atomic_ref-updated
  std::vector<double> price_sum_dollars_;     // per app, sum of observations
  std::vector<std::uint32_t> price_samples_;  // per app

  std::unique_ptr<events::LiveEventLog> download_live_;
  std::unique_ptr<events::LiveEventLog> comment_live_;
  std::vector<UpdateEvent> update_events_;
};

}  // namespace appstore::market

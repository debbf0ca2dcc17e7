// Global interleaved request streams.
//
// The cache study (§7 / Fig. 19) needs downloads in *arrival order* across
// all users, not per-user batches: LRU behaviour depends on how one user's
// category-local bursts interleave with everyone else's. We realize the
// arrival order by building the multiset of download slots (user u appears
// once per download it will make), shuffling it, and replaying it against
// per-user download sequences. Per-user history dependence (fetch-at-
// most-once, cluster affinity) is preserved; arrival order is exchangeable
// across users.
//
// Parallel + deterministic: each user's sequence is generated from its own
// derived RNG (util::rng::derive(base, user)), users are sharded statically
// across threads, and the slot multiset is shuffled by the caller's RNG.
// The output is therefore bit-identical for a fixed (rng state, seed) at
// EVERY thread count — threads only change which CPU generates a user.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "events/event_log.hpp"
#include "models/model.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace appstore::models {

/// Options for stream generation (the Options-struct API).
struct StreamOptions {
  /// Caps the total request count (the Fig. 19 setup fixes 2M downloads
  /// over 600k users rather than an exact per-user d).
  std::uint64_t max_requests = UINT64_MAX;
  /// Optional metrics sink: records model_draws_total{<model name>},
  /// model_generate_seconds{<name>} and the model_draws_per_second{<name>}
  /// gauge for each generation run (plus the par_* families when the
  /// generation runs sharded).
  obs::Registry* metrics = nullptr;
  /// Worker threads for per-user sequence generation; 0 = hardware
  /// concurrency. The stream content does not depend on this value.
  std::size_t threads = 0;
  /// Optional shard filter: when set, only rows whose user passes the filter
  /// are emitted (generate_stream_slice). The RNG draws consumed from the
  /// caller's rng (master seed + slot shuffle) and every per-user derived
  /// stream are IDENTICAL with and without a filter, so the union of
  /// disjoint slices is bit-identical to the unfiltered stream. Requires
  /// models whose sessions never exhaust before the realized count (true
  /// for kZipf and kAppClustering); the slice path throws if violated.
  std::function<bool(std::uint32_t)> user_filter{};
};

/// A shard's slice of the global interleaved stream (see
/// StreamOptions::user_filter).
struct StreamSlice {
  /// (user, app) rows of the filtered users, in union arrival order.
  events::EventLog log;
  /// Per-row arrival index in the UNION stream (empty when no filter was
  /// set — the row position is the arrival index then). Lets shards assign
  /// arrival-derived attributes (e.g. calendar days) exactly as the union
  /// run would.
  std::vector<std::uint64_t> arrival;
  /// Total row count of the union stream across all shards.
  std::uint64_t union_rows = 0;
};

/// Generates the (possibly user-filtered) stream slice. With no filter this
/// is generate_stream_log plus arrival bookkeeping elided.
[[nodiscard]] StreamSlice generate_stream_slice(const DownloadModel& model, util::Rng& rng,
                                                const StreamOptions& options = {});

/// Generates the full interleaved stream for `model` as a columnar
/// (user, app) EventLog in arrival order (Columns::kNone — the append
/// position IS the arrival order); the cache layer simulates directly over
/// the app column. The number of requests is the sum of per-user realized
/// download counts (≈ U * d).
[[nodiscard]] events::EventLog generate_stream_log(const DownloadModel& model, util::Rng& rng,
                                                   const StreamOptions& options = {});

}  // namespace appstore::models

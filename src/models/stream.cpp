#include "models/stream.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>

#include "par/parallel.hpp"

namespace appstore::models {

events::EventLog generate_stream_log(const DownloadModel& model, util::Rng& rng,
                                     const StreamOptions& options) {
  return generate_stream_slice(model, rng, options).log;
}

StreamSlice generate_stream_slice(const DownloadModel& model, util::Rng& rng,
                                  const StreamOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t max_requests = options.max_requests;
  const ModelParams& params = model.params();
  const std::uint64_t users = params.user_count;

  // One master draw seeds every user's derived stream; the shuffle below
  // still consumes the caller's rng directly. Both are thread-count
  // independent, so the stream is a pure function of (rng state, threads
  // notwithstanding).
  const std::uint64_t base = rng();
  const par::Options par_options{.threads = options.threads, .metrics = options.metrics};

  // Phase 1 (parallel): realized download count per user — the first draw of
  // each user's derived stream (the sequence draws continue from it later).
  std::vector<std::uint32_t> realized(users);
  par::parallel_for(users, par_options, [&](std::uint64_t user) {
    util::Rng user_rng = util::rng::derive(base, user);
    realized[user] = static_cast<std::uint32_t>(DownloadModel::realized_downloads(
        params.downloads_per_user, params.app_count, user_rng));
  });

  // Phase 2 (serial): slot multiset — user u appears once per download. The
  // cap is applied AFTER shuffling so that truncation drops a uniform sample
  // of slots instead of silencing the later users entirely.
  std::vector<std::uint32_t> slots;
  slots.reserve(static_cast<std::size_t>(params.total_downloads() * 1.01) + 16);
  for (std::uint64_t user = 0; user < users; ++user) {
    for (std::uint32_t k = 0; k < realized[user]; ++k) {
      slots.push_back(static_cast<std::uint32_t>(user));
    }
  }
  rng.shuffle(std::span<std::uint32_t>(slots));
  if (slots.size() > max_requests) slots.resize(max_requests);

  // Surviving downloads per user: with a request cap, most users need fewer
  // (often zero) sequence entries than they realized.
  std::vector<std::uint32_t> needed(users, 0);
  if (slots.size() < max_requests) {
    needed = realized;  // no truncation: every realized slot survived
  } else {
    for (const std::uint32_t user : slots) ++needed[user];
  }

  // Shard filtering: slot building, shuffling, and per-user derived streams
  // above are identical regardless of the filter, so a filtered run agrees
  // bit-for-bit with its position in the unfiltered union. Sequence storage
  // and generation are skipped entirely for filtered-out users.
  const bool filtered = static_cast<bool>(options.user_filter);
  std::vector<bool> owned;
  if (filtered) {
    owned.resize(users);
    for (std::uint64_t user = 0; user < users; ++user) {
      owned[user] = options.user_filter(static_cast<std::uint32_t>(user));
    }
  }
  const auto owns = [&](std::uint64_t user) { return !filtered || owned[user]; };

  // Flat per-user sequence storage: user u owns [offsets[u], offsets[u+1]).
  std::vector<std::uint64_t> offsets(users + 1, 0);
  for (std::uint64_t user = 0; user < users; ++user) {
    offsets[user + 1] = offsets[user] + (owns(user) ? needed[user] : 0);
  }

  // Phase 3 (parallel): per-user download sequences. Each user replays its
  // derived stream (count draw first, then session draws), so the sequence
  // is independent of sharding. `generated[u]` can fall short of needed[u]
  // only if the session exhausts the whole store. One session per shard,
  // reset between users, keeps the per-user cost O(d) at any store size.
  std::vector<std::uint32_t> sequence(offsets[users]);
  std::vector<std::uint32_t> generated(users, 0);
  par::for_shards(users, par_options, [&](std::uint64_t begin, std::uint64_t end,
                                          std::size_t /*shard*/) {
    const auto session = model.new_session();
    for (std::uint64_t user = begin; user < end; ++user) {
      if (needed[user] == 0 || !owns(user)) continue;
      util::Rng user_rng = util::rng::derive(base, user);
      (void)DownloadModel::realized_downloads(params.downloads_per_user, params.app_count,
                                              user_rng);  // re-consume the count draw
      session->reset();
      std::uint32_t produced = 0;
      while (produced < needed[user] && !session->exhausted()) {
        sequence[offsets[user] + produced] = session->next(user_rng);
        ++produced;
      }
      generated[user] = produced;
    }
  });
  if (filtered) {
    // A slice cannot see other shards' exhaustion, so union arrival indexes
    // are only exact when no session exhausts early. Our synthetic models
    // (kZipf, kAppClustering) never do; fail loudly rather than misalign.
    for (std::uint64_t user = 0; user < users; ++user) {
      if (owns(user) && generated[user] < needed[user]) {
        throw std::logic_error(
            "generate_stream_slice: session exhausted under a user filter; "
            "slice arrival order would diverge from the union stream");
      }
    }
  }

  // Phase 4 (serial): replay the shuffled slots against the sequences,
  // directly into the (user, app) columns of the output log. Under a filter
  // the slot position doubles as the union arrival index (no-exhaustion is
  // guaranteed above, so the union drops no slot).
  std::vector<std::uint32_t> out_user;
  std::vector<std::uint32_t> out_app;
  std::vector<std::uint64_t> out_arrival;
  if (!filtered) {
    out_user.reserve(slots.size());
    out_app.reserve(slots.size());
  }
  std::vector<std::uint32_t> cursor(users, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint32_t user = slots[i];
    if (!owns(user)) continue;
    if (cursor[user] >= generated[user]) continue;  // session exhausted early
    out_user.push_back(user);
    out_app.push_back(sequence[offsets[user] + cursor[user]++]);
    if (filtered) out_arrival.push_back(i);
  }
  StreamSlice result;
  result.union_rows = filtered ? slots.size() : out_user.size();
  result.arrival = std::move(out_arrival);
  events::EventLog stream = events::EventLog::from_columns(
      events::Columns::kNone, std::move(out_user), std::move(out_app));

  if (options.metrics != nullptr) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    obs::Registry& registry = *options.metrics;
    const std::string_view label = model.name();
    registry.counter("model_draws_total", label).inc(stream.size());
    registry.histogram("model_generate_seconds", label).observe(seconds);
    if (seconds > 0.0) {
      registry.gauge("model_draws_per_second", label)
          .set(static_cast<double>(stream.size()) / seconds);
    }
  }
  result.log = std::move(stream);
  return result;
}

}  // namespace appstore::models

// The benchmark's own request schedules: a pure function of (seed, store
// shape, rate, duration). Every target is on the versioned /api/v1 surface,
// so changes to the program's own load generator or to its unversioned
// aliases cannot change the offered traffic. The shares are fixed here and
// documented, with their reasons, in perfbench/NOTES.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Endpoint : std::uint8_t { kMeta = 0, kApps, kApp, kComments, kQuery };
constexpr std::size_t kEndpointCount = 5;

/// What the generator needs to know about the served store.
struct StoreShape {
  /// Apps detail requests may target, in popularity order (released ones:
  /// an unreleased app answers 404).
  std::vector<std::uint32_t> app_ids;
  std::uint32_t category_count = 1;
  std::uint32_t user_count = 1;
  std::uint32_t per_page = 100;
  /// Last day with events; query day-range filters are drawn inside it.
  std::int32_t last_day = 0;
};

struct Op {
  Endpoint endpoint = Endpoint::kMeta;
  std::string target;
  /// Offset from the run's origin at which the op is due (open loop).
  std::int64_t due_ns = 0;
};

/// Open loop: `clients` independent Poisson streams at `rate_hz / clients`
/// each, until `duration_s`. Equal arguments give an identical schedule.
[[nodiscard]] std::vector<std::vector<Op>> build_open_loop(std::uint64_t seed,
                                                           const StoreShape& shape,
                                                           std::size_t clients,
                                                           double rate_hz, double duration_s);

/// The due times of `ops`, per client (the load generator's input).
[[nodiscard]] std::vector<std::vector<std::int64_t>> due_times(
    const std::vector<std::vector<Op>>& ops);

/// `count` due times spread evenly over [0, duration_s): the i-th is due at
/// (i + 0.5) * duration / count.
[[nodiscard]] std::vector<std::int64_t> evenly_spaced(std::size_t count, double duration_s);

}  // namespace perfbench

// The benchmark's open-loop load generator. Each client runs on its own
// thread and works through its list of due times: it sleeps until an op is
// due, then calls the responder; the op's latency runs from its due time,
// so when a client falls behind, the wait its backlog imposes on the
// following ops is counted (no coordinated omission).
//
// All time comes from a chaos::Clock, so tests can stall a responder on a
// VirtualClock and check the arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "chaos/clock.hpp"

namespace perfbench {

struct Sample {
  std::int64_t due_ns = 0;    ///< when the op was due
  std::int64_t start_ns = 0;  ///< when the responder was called
  std::int64_t end_ns = 0;    ///< when it returned
  bool ok = false;            ///< false: responder reported failure or threw

  [[nodiscard]] std::int64_t latency_ns() const noexcept { return end_ns - due_ns; }
  /// How late the load generator itself called the responder.
  [[nodiscard]] std::int64_t lateness_ns() const noexcept { return start_ns - due_ns; }
};

/// Runs op `index` of client `client`; returns false on a failed operation.
/// Exceptions count as failures.
using Responder = std::function<bool(std::size_t client, std::size_t index)>;

/// Drives every client to completion; `due_ns[c][i]` is the offset from the
/// common origin at which op i of client c is due. Time comes from `clock`
/// (nullptr = real time). Returns the samples per client, index-aligned
/// with `due_ns`.
[[nodiscard]] std::vector<std::vector<Sample>> drive(
    const std::vector<std::vector<std::int64_t>>& due_ns, const Responder& respond,
    appstore::chaos::Clock* clock = nullptr);

}  // namespace perfbench

// Deterministic request-schedule generation for the load harness.
//
// A Schedule is a pure function of (ScheduleOptions, seed): per client, a
// seeded RNG (util::rng::derive — the same splitmix64 derivation the par
// engine uses for shard determinism) draws a request mix whose app-detail
// targets follow the store's own popularity structure — the clustered-Zipf
// model of §5 (global ZG with exponent zr; with probability p the next
// request stays in the previous app's cluster, sampled by the within-cluster
// Zipf Zc). The load we generate is therefore shaped like the workload the
// paper measured, not uniform noise: popular apps are hit far more often,
// and consecutive requests are correlated within clusters.
//
// Open-loop schedules additionally pre-draw Poisson arrival offsets (as
// virtual nanoseconds from client start), so the arrival process is part of
// the schedule and identically reproducible at any worker count.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace appstore::load {

/// Request classes the generator emits (the read-only crawl surface plus
/// the online analytics endpoint).
enum class OpKind : std::uint8_t { kMeta = 0, kApps, kApp, kComments, kQuery };
constexpr std::size_t kOpKindCount = 5;

/// Metric/report label for an op kind ("meta", "apps", ...).
[[nodiscard]] std::string_view to_string(OpKind kind) noexcept;

/// Shape of the request mix: endpoint weights plus the popularity model for
/// app-detail targets.
struct MixOptions {
  double meta_weight = 0.05;      ///< GET /api/v1/meta
  double apps_weight = 0.35;      ///< GET /api/v1/apps?page=...
  double app_weight = 0.45;       ///< GET /api/v1/app/<id>
  double comments_weight = 0.15;  ///< GET /api/v1/app/<id>/comments
  /// GET /api/v1/query — the analytics mix (defaults to 0 so existing
  /// schedules are unchanged). Targets rotate over the four aggregate kinds;
  /// top_k_downloads draws a user-selective filter from query_user_count.
  double query_weight = 0.0;
  std::uint32_t query_user_count = 1000;
  /// Apps addressable by detail requests; ids in [0, app_count).
  std::uint32_t app_count = 1000;
  /// Directory pages sampled uniformly in [0, directory_pages).
  std::uint32_t directory_pages = 10;
  std::uint32_t per_page = 100;
  /// Clustered-Zipf popularity (Table 2 notation): global exponent zr,
  /// clustering probability p, within-cluster exponent zc over C clusters.
  double zr = 0.6;
  double p = 0.8;
  double zc = 1.0;
  std::uint32_t cluster_count = 25;
};

struct ScheduleOptions {
  std::uint64_t seed = 0x10adULL;
  std::uint32_t clients = 8;
  std::uint32_t requests_per_client = 200;
  /// Per-client open-loop arrival rate (Poisson). 0 = closed loop: each
  /// client issues the next request as soon as the previous one completes.
  double open_loop_rate_hz = 0.0;
  MixOptions mix;
};

struct Request {
  OpKind kind = OpKind::kMeta;
  std::string target;
  /// Open loop: offset from client start at which the request is due.
  /// Closed loop: zero.
  std::chrono::nanoseconds arrival{0};
};

struct Schedule {
  ScheduleOptions options;
  std::vector<std::vector<Request>> per_client;

  [[nodiscard]] bool open_loop() const noexcept { return options.open_loop_rate_hz > 0.0; }
  [[nodiscard]] std::size_t total_requests() const noexcept;
};

/// Builds the full request schedule. Deterministic: equal options (including
/// seed) produce an identical schedule, independent of thread count, machine
/// or run — the property load_test pins down.
[[nodiscard]] Schedule build_schedule(const ScheduleOptions& options);

}  // namespace appstore::load

// The federation suite (`ctest -L federation`): the sharded scatter-gather
// gateway's correctness properties.
//
//   * HashRing — load balance within +-25% of uniform across 1000 derived
//     seeds at 64 vnodes, and the consistent-hashing contract: a join moves
//     ~1/N of the keys, all TO the newcomer; a leave restores ownership.
//   * Hedged requests — replayed on a chaos::VirtualClock so the race is
//     deterministic: the hedge fires only after the configured delay, the
//     losing attempt is cancelled (never an outcome), and
//       requests == ok + http_4xx + http_5xx + transport + breaker_open + shed
//     holds exactly, including under fault plans that kill the primary.
//   * Cross-shard parity — fig2 pareto, fig6 affinity and the fig8 rank
//     curve served through the gateway at 1/2/4 shards are element-wise
//     identical (EXPECT_EQ on the parsed doubles — the JSON number path
//     round-trips exactly) to a single store holding the union of events,
//     and land inside the same checked-in goldens golden_test pins.
//   * net::UpstreamTable — the per-upstream breaker table stays bounded
//     under membership churn (the TokenBucketLimiter eviction policy).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "crawler/json.hpp"
#include "crawler/service.hpp"
#include "fed/federation.hpp"
#include "fed/gateway.hpp"
#include "fed/ring.hpp"
#include "load/harness.hpp"
#include "load/workload.hpp"
#include "net/http.hpp"
#include "net/upstreams.hpp"
#include "query/federate.hpp"
#include "synth/generator.hpp"
#include "synth/profile.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

#ifndef APPSTORE_GOLDEN_DIR
#error "APPSTORE_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace appstore {
namespace {

using namespace std::chrono_literals;

/// The query day bound that covers every generated event (same as
/// golden_test: the goldens pin this exact run).
constexpr market::Day kEndOfHistory = 1 << 20;

/// The seeded config the checked-in goldens were generated from.
[[nodiscard]] synth::GeneratorConfig golden_config() {
  synth::GeneratorConfig config;
  config.seed = 0x5eed;
  config.app_scale = 0.01;
  config.download_scale = 5e-5;
  return config;
}

using GoldenMap = std::map<std::string, double>;

[[nodiscard]] GoldenMap read_golden(const std::string& name) {
  GoldenMap golden;
  std::ifstream in(std::string(APPSTORE_GOLDEN_DIR) + "/" + name);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.rfind(',');
    if (comma == std::string::npos) continue;
    golden[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
  }
  return golden;
}

[[nodiscard]] net::HttpRequest get(const std::string& target) {
  net::HttpRequest request;
  request.target = target;
  request.headers["X-Client-Id"] = "fed-test";
  return request;
}

/// Every respond() lands in exactly one outcome bucket.
void expect_fully_accounted(const fed::GatewayStats& stats) {
  EXPECT_EQ(stats.requests, stats.ok + stats.http_4xx + stats.http_5xx +
                                stats.transport + stats.breaker_open + stats.shed);
}

// ---- consistent-hash ring properties ---------------------------------------------

TEST(HashRing, LoadWithinQuarterOfUniformAcrossSeeds) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kKeys = 2048;
  constexpr double kUniform = static_cast<double>(kKeys) / kShards;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    fed::RingOptions options;
    options.vnodes = 64;
    options.seed = util::rng::derive_seed(0xba5eba11ULL, trial);
    fed::HashRing ring(options);
    for (std::size_t i = 0; i < kShards; ++i) {
      ASSERT_TRUE(ring.add(util::format("shard-{}", i)));
    }
    std::size_t counts[kShards] = {};
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ++counts[ring.owner_index(key)];
    }
    for (std::size_t i = 0; i < kShards; ++i) {
      const double load = static_cast<double>(counts[i]);
      ASSERT_GE(load, 0.75 * kUniform) << "seed " << options.seed << " shard " << i;
      ASSERT_LE(load, 1.25 * kUniform) << "seed " << options.seed << " shard " << i;
    }
  }
}

TEST(HashRing, JoinMovesOnlyNewOwnersKeysLeaveRestores) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kKeys = 2048;
  for (std::uint64_t trial = 0; trial < 100; ++trial) {
    fed::RingOptions options;
    options.seed = util::rng::derive_seed(0x10adedULL, trial);
    fed::HashRing ring(options);
    for (std::size_t i = 0; i < kShards; ++i) ring.add(util::format("shard-{}", i));
    std::vector<std::size_t> before(kKeys);
    for (std::uint64_t key = 0; key < kKeys; ++key) before[key] = ring.owner_index(key);

    ASSERT_TRUE(ring.add("shard-new"));
    std::uint64_t moved = 0;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      const std::size_t owner = ring.owner_index(key);
      if (owner != before[key]) {
        ++moved;
        // Consistent hashing: every relocated key lands on the newcomer.
        ASSERT_EQ(ring.members()[owner], "shard-new") << "key " << key;
      }
    }
    // Expected fraction is 1/(N+1) = 0.20; the multinomial noise over 2048
    // keys is ~1%, so [12%, 28%] is a many-sigma corridor.
    ASSERT_GE(moved, kKeys * 12 / 100) << "seed " << options.seed;
    ASSERT_LE(moved, kKeys * 28 / 100) << "seed " << options.seed;

    ASSERT_TRUE(ring.remove("shard-new"));
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      ASSERT_EQ(ring.owner_index(key), before[key]) << "key " << key;
    }
  }
}

TEST(HashRing, MembershipBasics) {
  fed::HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_THROW((void)ring.owner(42), std::logic_error);
  EXPECT_TRUE(ring.add("a"));
  EXPECT_FALSE(ring.add("a"));
  EXPECT_TRUE(ring.contains("a"));
  EXPECT_EQ(ring.owner(7), "a");
  EXPECT_FALSE(ring.remove("b"));
  EXPECT_TRUE(ring.remove("a"));
  EXPECT_TRUE(ring.empty());
}

// ---- bounded per-upstream breaker table ------------------------------------------

TEST(UpstreamTable, StaysBoundedAndEvictsStalest) {
  chaos::VirtualClock clock;
  net::UpstreamTable::Options options;
  options.max_keys = 16;
  options.clock = &clock;
  net::UpstreamTable table(options);

  for (int i = 0; i < 64; ++i) {
    clock.sleep_for(1ms);  // distinct last-used stamps
    (void)table.breaker(util::format("upstream-{}", i));
    EXPECT_LE(table.tracked_keys(), options.max_keys);
  }
  // 64 inserts through a 16-entry cap: at least 48 entries were evicted.
  EXPECT_GE(table.evictions(), 48u);

  // Same id -> same breaker object while tracked.
  const auto first = table.breaker("stable");
  EXPECT_EQ(first.get(), table.breaker("stable").get());

  const auto tracked = table.tracked_keys();
  const auto evicted = table.evictions();
  table.forget("stable");
  EXPECT_EQ(table.tracked_keys(), tracked - 1);
  EXPECT_EQ(table.evictions(), evicted + 1);
  table.forget("never-seen");  // no-op
  EXPECT_EQ(table.evictions(), evicted + 1);
}

TEST(UpstreamTable, GatewayBreakerStateBoundedUnderChurn) {
  fed::GatewayOptions options;
  options.max_upstream_keys = 8;
  fed::FederationGateway gateway(options);
  const auto body = net::HttpResponse::json(200, "{\"page\": 0, \"ids\": []}");
  for (int i = 0; i < 32; ++i) {
    gateway.add_upstream(util::format("shard-{}", i),
                         [body](const net::HttpRequest&) { return body; });
  }
  // One scatter touches every upstream's breaker entry; the table must hold
  // the cap even though 32 upstreams are live.
  const auto response = gateway.respond(get("/api/v1/apps?page=0"));
  EXPECT_EQ(response.status, 200);
  EXPECT_LE(gateway.upstreams().tracked_keys(), options.max_upstream_keys);
  EXPECT_GT(gateway.upstreams().evictions(), 0u);
  expect_fully_accounted(gateway.stats());
}

// ---- deterministic hedging on the virtual clock ----------------------------------

/// A gateway with one upstream whose call sleeps `latency` on the virtual
/// clock and answers 200.
struct HedgeRig {
  chaos::VirtualClock clock;
  std::unique_ptr<fed::FederationGateway> gateway;
  std::chrono::nanoseconds latency{0};

  explicit HedgeRig(fed::GatewayOptions options) {
    options.clock = &clock;
    gateway = std::make_unique<fed::FederationGateway>(options);
    gateway->add_upstream("shard-0", [this](const net::HttpRequest&) {
      chaos::sleep_or_real(&clock, latency);
      return net::HttpResponse::json(200, "{\"store\": \"rig\"}");
    });
  }
};

TEST(HedgedRequests, FiresOnlyAfterConfiguredDelay) {
  fed::GatewayOptions options;
  options.hedge_delay = 10ms;
  HedgeRig rig(options);

  rig.latency = 5ms;  // under the delay: no hedge
  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  EXPECT_EQ(rig.gateway->stats().hedges, 0u);

  rig.latency = 10ms;  // exactly the delay: still no hedge
  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  EXPECT_EQ(rig.gateway->stats().hedges, 0u);

  rig.latency = 25ms;  // past the delay: the hedge races (and loses — the
                       // second attempt is just as slow, issued 10ms later)
  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  const auto stats = rig.gateway->stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 0u);
  EXPECT_EQ(stats.hedges_cancelled, 1u);  // exactly one cancelled loser
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.upstream_calls, 4u);  // 3 primaries + 1 hedge
  expect_fully_accounted(stats);
}

TEST(HedgedRequests, DisabledMeansNoRace) {
  fed::GatewayOptions options;
  options.hedge_enabled = false;
  options.hedge_delay = 10ms;
  HedgeRig rig(options);
  rig.latency = 100ms;
  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  EXPECT_EQ(rig.gateway->stats().hedges, 0u);
  EXPECT_EQ(rig.gateway->stats().upstream_calls, 1u);
}

TEST(HedgedRequests, WinnerCancelsSlowPrimary) {
  // The fault plan delays exactly one exchange by 50ms; the retry (the
  // hedge) is clean. With a 10ms hedge delay the hedge completes at virtual
  // t = 10ms, beating the primary's 50ms: it must win, and the race must
  // still account exactly one outcome.
  chaos::FaultPlan plan;
  plan.seed = 7;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kLatency,
                        /*probability=*/1.0, /*latency=*/50ms});
  chaos::FaultInjector injector(plan);

  fed::GatewayOptions options;
  options.hedge_delay = 10ms;
  options.faults = &injector;
  HedgeRig rig(options);

  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  const auto stats = rig.gateway->stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.hedges_cancelled, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.ok, 1u);  // the loser is cancelled, never an outcome
  expect_fully_accounted(stats);
}

TEST(HedgedRequests, HedgeRecoversTransportDeadPrimary) {
  chaos::FaultPlan plan;
  plan.seed = 11;
  plan.max_faults_per_key = 1;  // only the primary dies; the hedge is clean
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset,
                        /*probability=*/1.0, /*latency=*/0ms});
  chaos::FaultInjector injector(plan);

  fed::GatewayOptions options;
  options.hedge_delay = 10ms;
  options.faults = &injector;
  HedgeRig rig(options);

  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  const auto stats = rig.gateway->stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.transport, 0u);  // the reset primary became the cancelled loser
  EXPECT_EQ(stats.hedge_wins, 1u);
  expect_fully_accounted(stats);
}

TEST(HedgedRequests, BothAttemptsDeadIsOneTransportOutcomeThenBreakerOpens) {
  chaos::FaultPlan plan;
  plan.seed = 13;
  plan.max_faults_per_key = 0;  // uncapped: primary AND hedge die, forever
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset,
                        /*probability=*/1.0, /*latency=*/0ms});
  chaos::FaultInjector injector(plan);

  fed::GatewayOptions options;
  options.hedge_delay = 10ms;
  options.faults = &injector;
  HedgeRig rig(options);

  // Default breaker: 5 consecutive failures trip open. Each hedged race
  // records exactly one failure (the winner's), so responds 1..5 are
  // transport outcomes and respond 6 is answered from the open breaker.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 502);
  }
  const auto response = rig.gateway->respond(get("/api/v1/meta"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("breaker_open"), std::string::npos) << response.body;

  const auto stats = rig.gateway->stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.transport, 5u);
  EXPECT_EQ(stats.breaker_open, 1u);
  EXPECT_EQ(stats.hedges, 5u);
  EXPECT_EQ(stats.hedge_wins, 0u);
  EXPECT_EQ(stats.hedges_cancelled, 5u);
  expect_fully_accounted(stats);
}

TEST(HedgedRequests, DerivedDelayArmsAfterMinSamples) {
  fed::GatewayOptions options;
  options.hedge_delay = 0ns;  // derive from the observed latency quantile
  options.hedge_min_samples = 4;
  HedgeRig rig(options);

  rig.latency = 1ms;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  }
  EXPECT_EQ(rig.gateway->stats().hedges, 0u);  // not armed until min samples

  rig.latency = 5ms;  // now well past the derived ~1ms p95
  EXPECT_EQ(rig.gateway->respond(get("/api/v1/meta")).status, 200);
  EXPECT_EQ(rig.gateway->stats().hedges, 1u);
  expect_fully_accounted(rig.gateway->stats());
}

// ---- gateway error surfaces ------------------------------------------------------

TEST(Gateway, NoUpstreamsIsShed) {
  fed::FederationGateway gateway;
  const auto response = gateway.respond(get("/api/v1/meta"));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("no_upstreams"), std::string::npos);
  EXPECT_EQ(gateway.stats().shed, 1u);
  expect_fully_accounted(gateway.stats());
}

TEST(Gateway, ReplicatedDirectoryDivergenceIs502) {
  fed::FederationGateway gateway;
  gateway.add_upstream("shard-0", [](const net::HttpRequest&) {
    return net::HttpResponse::json(200, "{\"page\": 0, \"ids\": [1]}");
  });
  gateway.add_upstream("shard-1", [](const net::HttpRequest&) {
    return net::HttpResponse::json(200, "{\"page\": 0, \"ids\": [2]}");
  });
  const auto response = gateway.respond(get("/api/v1/apps?page=0"));
  EXPECT_EQ(response.status, 502);
  EXPECT_NE(response.body.find("shard_divergence"), std::string::npos);
  expect_fully_accounted(gateway.stats());
}

TEST(Gateway, CommentMergeRefusesUnboundedScan) {
  fed::GatewayOptions options;
  options.comment_scan_pages = 1;
  fed::FederationGateway gateway(options);
  // total = 1000 needs 5 pages of 200; the 1-page bound must refuse, not scan.
  gateway.add_upstream("shard-0", [](const net::HttpRequest&) {
    return net::HttpResponse::json(
        200, "{\"app\": 1, \"total\": 1000, \"page\": 0, \"comments\": []}");
  });
  const auto response = gateway.respond(get("/api/v1/app/1/comments"));
  EXPECT_EQ(response.status, 502);
  EXPECT_NE(response.body.find("comment_scan_overflow"), std::string::npos);
  expect_fully_accounted(gateway.stats());
}

// ---- outcome accounting under a hostile fault plan -------------------------------

TEST(Gateway, AccountingInvariantHoldsUnderFaultPlanLoad) {
  synth::GeneratorConfig config = golden_config();
  config.app_scale = 0.005;  // keep the bring-up cheap; parity has its own suite

  crawlersim::ServicePolicy policy;
  policy.rate_per_second = 1e9;  // the invariant under test is the gateway's,
  policy.burst = 1e9;            // not the shard token buckets'

  fed::FederationOptions federation_options;
  federation_options.profile = synth::anzhi();
  federation_options.config = config;
  federation_options.shards = 2;
  federation_options.policy = policy;
  federation_options.day = kEndOfHistory;
  const fed::Federation federation = fed::build_federation(federation_options);

  chaos::FaultPlan plan;
  plan.seed = 0xfa117;
  plan.max_faults_per_key = 0;  // uncapped — the accounting must not rely on recovery
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kConnectionReset,
                        /*probability=*/0.08, /*latency=*/0ms});
  plan.rules.push_back({chaos::FaultSite::kExchange, chaos::FaultKind::kHttp500,
                        /*probability=*/0.05, /*latency=*/0ms});
  chaos::FaultInjector injector(plan);

  chaos::VirtualClock clock;
  fed::GatewayOptions gateway_options;
  gateway_options.clock = &clock;
  gateway_options.faults = &injector;
  gateway_options.hedge_delay = 1ms;
  fed::FederationGateway gateway(gateway_options);
  federation.attach(gateway);

  load::ScheduleOptions schedule_options;
  schedule_options.seed = 0xfed10ad;
  schedule_options.clients = 4;
  schedule_options.requests_per_client = 150;
  schedule_options.mix.query_weight = 0.1;
  schedule_options.mix.app_count = 200;
  const load::Schedule schedule = load::build_schedule(schedule_options);

  load::RunOptions run_options;
  run_options.respond = [&gateway](const net::HttpRequest& request) {
    return gateway.respond(request);
  };
  run_options.clock = &clock;
  const load::RunReport report = load::run(schedule, run_options);

  // Harness-side: every issued request has exactly one outcome.
  EXPECT_EQ(report.totals.issued,
            report.totals.ok + report.totals.http_4xx + report.totals.http_5xx +
                report.totals.shed + report.totals.transport_errors);
  // The gateway never throws — upstream failures surface as HTTP errors.
  EXPECT_EQ(report.totals.transport_errors, 0u);

  const auto stats = gateway.stats();
  EXPECT_EQ(stats.requests, report.totals.issued);
  expect_fully_accounted(stats);
  // The plan's probabilities guarantee every bucket the plan can reach was
  // actually exercised, so the invariant is not vacuous.
  EXPECT_GT(stats.ok, 0u);
  EXPECT_GT(stats.transport + stats.breaker_open, 0u);
  EXPECT_GT(stats.http_5xx + stats.transport, 0u);
  EXPECT_EQ(stats.hedges, stats.hedges_cancelled);
  EXPECT_GE(stats.hedges, stats.hedge_wins);
}

// ---- cross-shard parity against the single store and the goldens -----------------

class FederationParity : public ::testing::Test {
 protected:
  struct World {
    synth::GeneratedStore single;
    std::unique_ptr<crawlersim::AppstoreService> service;
    std::vector<std::size_t> shard_counts{1, 2, 4};
    std::vector<fed::Federation> federations;
    std::vector<std::unique_ptr<fed::FederationGateway>> gateways;
  };

  static void SetUpTestSuite() {
    if (world_ != nullptr) return;
    world_ = new World;
    synth::GeneratorConfig config = golden_config();
    config.comments = true;  // fig6 needs the rated-comment stream

    crawlersim::ServicePolicy policy;
    policy.rate_per_second = 1e9;
    policy.burst = 1e9;

    world_->single = synth::generate(synth::anzhi(), config);
    world_->service =
        std::make_unique<crawlersim::AppstoreService>(*world_->single.store, policy);
    world_->service->set_day(kEndOfHistory);

    for (const std::size_t shards : world_->shard_counts) {
      fed::FederationOptions options;
      options.profile = synth::anzhi();
      options.config = config;
      options.shards = shards;
      options.policy = policy;
      options.day = kEndOfHistory;
      world_->federations.push_back(fed::build_federation(options));
      auto gateway = std::make_unique<fed::FederationGateway>(
          fed::GatewayOptions{.ring = options.ring});
      world_->federations.back().attach(*gateway);
      world_->gateways.push_back(std::move(gateway));
    }
  }

  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  [[nodiscard]] static net::HttpResponse single_store(const std::string& target) {
    return world_->service->respond(get(target));
  }

  [[nodiscard]] static net::HttpResponse gateway(std::size_t index,
                                                 const std::string& target) {
    return world_->gateways[index]->respond(get(target));
  }

  [[nodiscard]] static crawlersim::Json parse_ok(const net::HttpResponse& response) {
    EXPECT_EQ(response.status, 200) << response.body;
    auto parsed = crawlersim::parse_json(response.body);
    EXPECT_TRUE(parsed.has_value()) << response.body;
    return std::move(*parsed);
  }

  static World* world_;
};

FederationParity::World* FederationParity::world_ = nullptr;

TEST_F(FederationParity, ParetoSharesBitExactAndInsideFig2Golden) {
  const GoldenMap fig2 = read_golden("fig2_pareto.csv");
  ASSERT_FALSE(fig2.empty());
  const auto expected = parse_ok(single_store("/api/v1/query?kind=pareto_share"));
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    const auto merged = parse_ok(gateway(i, "/api/v1/query?kind=pareto_share"));
    const auto& want = expected.at("pareto").as_array();
    const auto& got = merged.at("pareto").as_array();
    ASSERT_EQ(got.size(), want.size()) << world_->shard_counts[i] << " shards";
    for (std::size_t p = 0; p < want.size(); ++p) {
      const double fraction = want[p].at("fraction").as_number();
      EXPECT_EQ(got[p].at("fraction").as_number(), fraction);
      // Bit-exact against the union store (the merge runs the identical
      // finalizer over the summed per-app counts)...
      EXPECT_EQ(got[p].at("share").as_number(), want[p].at("share").as_number())
          << world_->shard_counts[i] << " shards, fraction " << fraction;
      // ...and inside the fig2 golden corridor like any single-store run.
      const auto golden =
          fig2.find("Anzhi:top" + util::format("{:.2f}", fraction));
      ASSERT_NE(golden, fig2.end());
      EXPECT_NEAR(got[p].at("share").as_number(), golden->second, 0.015);
    }
    EXPECT_EQ(merged.at("total_downloads").as_u64(),
              expected.at("total_downloads").as_u64());
  }
}

TEST_F(FederationParity, AffinityBitExactAndInsideFig6Golden) {
  const GoldenMap fig6 = read_golden("fig6_affinity.csv");
  ASSERT_FALSE(fig6.empty());
  // min_samples=1 keeps real per-user samples in play at golden scale, so
  // the merge path (concatenate shard samples, rebuild groups) is exercised
  // with non-trivial groups, not just the replicated random-walk baseline.
  for (const std::string_view spec :
       {std::string_view("depths=1,2,3"), std::string_view("depths=1,2,3&min_samples=1")}) {
    const std::string target =
        "/api/v1/query?kind=category_affinity&" + std::string(spec);
    const auto expected = parse_ok(single_store(target));
    for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
      const auto merged = parse_ok(gateway(i, target));
      const auto& want = expected.at("affinity").as_array();
      const auto& got = merged.at("affinity").as_array();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < want.size(); ++d) {
        for (const char* field : {"depth", "mean", "random_walk", "groups", "samples"}) {
          EXPECT_EQ(got[d].at(field).as_number(), want[d].at(field).as_number())
              << world_->shard_counts[i] << " shards, " << spec << ", point " << d
              << ", " << field;
        }
      }
    }
    if (spec != "depths=1,2,3") continue;
    // The default-spec answer is the one fig6_affinity.csv pins.
    for (const auto& point : expected.at("affinity").as_array()) {
      const std::string prefix =
          "anzhi:depth" + std::to_string(point.at("depth").as_u64());
      for (const char* field : {"mean", "random_walk", "groups", "samples"}) {
        const auto golden = fig6.find(prefix + ":" + field);
        ASSERT_NE(golden, fig6.end()) << prefix << ":" << field;
        const double expected_value = golden->second;
        EXPECT_NEAR(point.at(field).as_number(), expected_value,
                    1e-6 + 1e-6 * std::abs(expected_value));
      }
    }
  }
  EXPECT_GT(parse_ok(single_store(
                         "/api/v1/query?kind=category_affinity&depths=1&min_samples=1"))
                .at("affinity")
                .as_array()[0]
                .at("groups")
                .as_u64(),
            0u)
      << "min_samples=1 was expected to yield real merged groups";
}

TEST_F(FederationParity, RankCurveBitExactAndInsideFig8MeasuredGolden) {
  const GoldenMap curve_golden = read_golden("query_rank_curve.csv");
  ASSERT_FALSE(curve_golden.empty());
  const std::string target = "/api/v1/query?kind=rank_download_curve&points=50";
  const auto expected = parse_ok(single_store(target));
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    const auto merged = parse_ok(gateway(i, target));
    const auto& want = expected.at("curve").as_array();
    const auto& got = merged.at("curve").as_array();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t p = 0; p < want.size(); ++p) {
      EXPECT_EQ(got[p].at("rank").as_u64(), want[p].at("rank").as_u64());
      EXPECT_EQ(got[p].at("downloads").as_u64(), want[p].at("downloads").as_u64());
      const auto golden =
          curve_golden.find(util::format("anzhi:rank{}", got[p].at("rank").as_u64()));
      ASSERT_NE(golden, curve_golden.end());
      EXPECT_NEAR(static_cast<double>(got[p].at("downloads").as_u64()), golden->second,
                  1e-9);
    }
    EXPECT_EQ(merged.at("total_downloads").as_u64(),
              expected.at("total_downloads").as_u64());
  }
}

TEST_F(FederationParity, ReplicatedDirectoryAndMetaAreByteIdentical) {
  for (const std::string& target : std::vector<std::string>{
           "/api/v1/apps?page=0", "/api/v1/apps?page=1", "/api/v1/meta"}) {
    const auto expected = single_store(target);
    ASSERT_EQ(expected.status, 200);
    for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
      const auto merged = gateway(i, target);
      ASSERT_EQ(merged.status, 200);
      EXPECT_EQ(merged.body, expected.body)
          << world_->shard_counts[i] << " shards, " << target;
    }
  }
}

TEST_F(FederationParity, UnversionedPathsAreNotFoundThroughGateway) {
  // The gateway routes with AppstoreService::route, so a 2-shard gateway
  // refuses the paths the service refuses, with the same envelope.
  ASSERT_EQ(world_->shard_counts[1], 2u);
  for (const std::string& target :
       std::vector<std::string>{"/api/meta", "/api/query?kind=pareto_share", "/api/metrics",
                                "/api", "/api/v1", "/api/v1meta"}) {
    const net::HttpResponse response = gateway(1, target);
    EXPECT_EQ(response.status, 404) << target;
    const auto parsed = crawlersim::parse_json(response.body);
    ASSERT_TRUE(parsed.has_value()) << target << ": " << response.body;
    EXPECT_EQ(parsed->at("error").at("code").as_string(), "not_found") << target;
  }
}

TEST_F(FederationParity, AppDownloadsSumAcrossShards) {
  const auto directory = parse_ok(single_store("/api/v1/apps?page=0"));
  const auto& ids = directory.at("ids").as_array();
  ASSERT_FALSE(ids.empty());
  for (std::size_t n = 0; n < std::min<std::size_t>(ids.size(), 8); ++n) {
    const std::string target = util::format("/api/v1/app/{}", ids[n].as_u64());
    const auto expected = parse_ok(single_store(target));
    for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
      const auto merged = parse_ok(gateway(i, target));
      EXPECT_EQ(merged.at("downloads").as_u64(), expected.at("downloads").as_u64())
          << world_->shard_counts[i] << " shards, " << target;
      EXPECT_EQ(merged.at("name").as_string(), expected.at("name").as_string());
      EXPECT_EQ(merged.at("category").as_string(), expected.at("category").as_string());
    }
  }
}

TEST_F(FederationParity, CommentsMergePreservesTotalsAndRowSet) {
  // Row identity is (user, day, rating). `ordinal` is deliberately absent:
  // it is the store's within-day sequence number stamped at generation, so a
  // shard that skips other users' events assigns different ordinals than the
  // union store — a shard-local position, not replicated content
  // (docs/federation.md documents this next to the merged byte-order caveat).
  using Row = std::tuple<std::uint64_t, double, double>;
  const auto collect = [](const std::function<net::HttpResponse(const std::string&)>& fetch,
                          const std::string& base, std::vector<Row>& rows,
                          std::vector<double>& days) -> std::uint64_t {
    std::uint64_t total = 0;
    for (std::uint64_t page = 0;; ++page) {
      auto parsed = crawlersim::parse_json(
          fetch(util::format("{}?page={}", base, page)).body);
      if (!parsed.has_value()) ADD_FAILURE() << base;
      total = parsed->at("total").as_u64();
      const auto& comments = parsed->at("comments").as_array();
      for (const auto& comment : comments) {
        rows.emplace_back(comment.at("user").as_u64(), comment.at("day").as_number(),
                          comment.at("rating").as_number());
        days.push_back(comment.at("day").as_number());
      }
      if ((page + 1) * 200 >= total || comments.empty()) break;
    }
    return total;
  };

  // Find an app that actually has comments in the union store.
  const auto directory = parse_ok(single_store("/api/v1/apps?page=0"));
  std::string base;
  for (const auto& id : directory.at("ids").as_array()) {
    const std::string candidate = util::format("/api/v1/app/{}/comments", id.as_u64());
    const auto probe = parse_ok(single_store(candidate + "?page=0"));
    if (probe.at("total").as_u64() > 0) {
      base = candidate;
      break;
    }
  }
  ASSERT_FALSE(base.empty()) << "no commented app at golden scale";

  std::vector<Row> single_rows;
  std::vector<double> single_days;
  const std::uint64_t single_total = collect(
      [](const std::string& t) { return single_store(t); }, base, single_rows,
      single_days);
  ASSERT_EQ(single_rows.size(), single_total);

  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    std::vector<Row> merged_rows;
    std::vector<double> merged_days;
    const std::uint64_t merged_total = collect(
        [i](const std::string& t) { return gateway(i, t); }, base, merged_rows,
        merged_days);
    EXPECT_EQ(merged_total, single_total) << world_->shard_counts[i] << " shards";
    ASSERT_EQ(merged_rows.size(), single_rows.size());
    // The merged stream is day-ordered (the documented federation order)...
    EXPECT_TRUE(std::is_sorted(merged_days.begin(), merged_days.end()));
    // ...and is exactly the union store's row multiset.
    auto want = single_rows;
    std::sort(want.begin(), want.end());
    std::sort(merged_rows.begin(), merged_rows.end());
    EXPECT_EQ(merged_rows, want) << world_->shard_counts[i] << " shards";
  }
}

TEST_F(FederationParity, SingleUserQueryRoutesToOneShard) {
  net::HttpRequest request = get("/api/v1/query");
  request.method = "POST";
  request.body =
      "{\"kind\": \"top_k_downloads\", \"k\": 5, "
      "\"filter\": {\"field\": \"user\", \"op\": \"==\", \"value\": 7}}";

  const auto expected = parse_ok(world_->service->respond(request));
  const std::size_t four_shards = world_->shard_counts.size() - 1;
  ASSERT_EQ(world_->shard_counts[four_shards], 4u);
  const auto before = world_->gateways[four_shards]->stats();
  const auto merged = parse_ok(world_->gateways[four_shards]->respond(request));
  const auto after = world_->gateways[four_shards]->stats();

  // The fast path: one upstream call, no scatter, no partial merge.
  EXPECT_EQ(after.upstream_calls - before.upstream_calls, 1u);
  const auto& want = expected.at("top").as_array();
  const auto& got = merged.at("top").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    EXPECT_EQ(got[p].at("app").as_u64(), want[p].at("app").as_u64());
    EXPECT_EQ(got[p].at("downloads").as_u64(), want[p].at("downloads").as_u64());
  }
  EXPECT_EQ(merged.at("total_downloads").as_u64(),
            expected.at("total_downloads").as_u64());
}

TEST_F(FederationParity, ShardUnionMatchesSingleStoreEventCounts) {
  // The bring-up contract behind all of the above: disjoint user slices
  // whose union is the whole store.
  const std::uint64_t single_downloads = world_->single.store->total_downloads();
  for (std::size_t i = 0; i < world_->shard_counts.size(); ++i) {
    std::uint64_t downloads = 0;
    for (const auto& generated : world_->federations[i].stores) {
      downloads += generated.store->total_downloads();
    }
    EXPECT_EQ(downloads, single_downloads) << world_->shard_counts[i] << " shards";
  }
}

}  // namespace
}  // namespace appstore

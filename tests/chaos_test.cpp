// Tests for the fault-injection layer: virtual time, fault plans and
// injectors, the circuit breaker, the client/server chaos seams over real
// loopback sockets, and torn-write atomicity of the binary writers.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "chaos/clock.hpp"
#include "chaos/fault.hpp"
#include "chaos/file_faults.hpp"
#include "events/io.hpp"
#include "net/breaker.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"

namespace appstore::chaos {
namespace {

using namespace std::chrono_literals;

// ---- VirtualClock ----------------------------------------------------------------

TEST(VirtualClock, SleepsAdvanceInsteadOfBlocking) {
  VirtualClock clock;
  const auto start = clock.now();
  const auto wall_start = std::chrono::steady_clock::now();
  clock.sleep_for(10min);
  clock.advance(5min);
  const auto wall = std::chrono::steady_clock::now() - wall_start;
  EXPECT_EQ(clock.now() - start, 15min);
  EXPECT_EQ(clock.elapsed(), 15min);
  EXPECT_LT(wall, 1s);  // 15 virtual minutes cost ~0 wall time
}

TEST(VirtualClock, TimeFnAdapterTracksTheClock) {
  VirtualClock clock;
  const auto fn = clock.time_fn();
  const auto before = fn();
  clock.advance(30s);
  EXPECT_EQ(fn() - before, 30s);
}

TEST(VirtualClock, NegativeAdvanceIgnored) {
  VirtualClock clock;
  clock.advance(-5s);
  EXPECT_EQ(clock.elapsed(), 0ns);
}

TEST(Clock, NullMeansRealTime) {
  const auto a = now_or_real(nullptr);
  const auto b = now_or_real(nullptr);
  EXPECT_LE(a, b);
  sleep_or_real(nullptr, 0ns);  // must not block
}

// ---- FaultPlan -------------------------------------------------------------------

TEST(FaultPlan, DecideIsPure) {
  FaultPlan plan;
  plan.seed = 42;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kHttp500, 0.5, {}});
  for (std::uint32_t call = 0; call < 100; ++call) {
    const Fault first = plan.decide(FaultSite::kExchange, "/api/app/7", call);
    const Fault again = plan.decide(FaultSite::kExchange, "/api/app/7", call);
    EXPECT_EQ(first.kind, again.kind);
  }
}

TEST(FaultPlan, RateMatchesProbability) {
  FaultPlan plan;
  plan.seed = 7;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kHttp500, 0.3, {}});
  std::size_t faulted = 0;
  const std::size_t calls = 10000;
  for (std::size_t call = 0; call < calls; ++call) {
    if (!plan.decide(FaultSite::kExchange, "key", static_cast<std::uint32_t>(call)).none()) {
      ++faulted;
    }
  }
  const double rate = static_cast<double>(faulted) / static_cast<double>(calls);
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(FaultPlan, SitesAndKeysAreIndependent) {
  FaultPlan plan;
  plan.seed = 9;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kHttp429, 1.0, {}});
  // A rule for kExchange never fires at other sites or stops other keys.
  EXPECT_TRUE(plan.decide(FaultSite::kServer, "key", 0).none());
  EXPECT_TRUE(plan.decide(FaultSite::kFileWrite, "key", 0).none());
  EXPECT_EQ(plan.decide(FaultSite::kExchange, "other", 0).kind, FaultKind::kHttp429);
}

TEST(FaultPlan, LatencyRuleCarriesDuration) {
  FaultPlan plan;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kLatency, 1.0, 250ms});
  const Fault fault = plan.decide(FaultSite::kExchange, "k", 0);
  EXPECT_EQ(fault.kind, FaultKind::kLatency);
  EXPECT_EQ(fault.latency, 250ms);
}

// ---- FaultInjector ---------------------------------------------------------------

TEST(FaultInjector, CapBoundsFaultsPerKey) {
  FaultPlan plan;
  plan.seed = 1;
  plan.max_faults_per_key = 2;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kHttp500, 1.0, {}});
  FaultInjector injector(plan);

  EXPECT_EQ(injector.next(FaultSite::kExchange, "a").kind, FaultKind::kHttp500);
  EXPECT_EQ(injector.next(FaultSite::kExchange, "a").kind, FaultKind::kHttp500);
  // Capped: every further call for this key is clean.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(injector.next(FaultSite::kExchange, "a").none());
  }
  // Other keys have their own budget.
  EXPECT_EQ(injector.next(FaultSite::kExchange, "b").kind, FaultKind::kHttp500);
  EXPECT_EQ(injector.injected_total(), 3u);
  EXPECT_EQ(injector.calls_total(), 13u);
}

TEST(FaultInjector, MirrorsInjectionsIntoMetrics) {
  obs::Registry registry;
  FaultPlan plan;
  plan.max_faults_per_key = 0;  // uncapped
  plan.rules.push_back({FaultSite::kServer, FaultKind::kConnectionReset, 1.0, {}});
  FaultInjector injector(plan, &registry);
  (void)injector.next(FaultSite::kServer, "x");
  (void)injector.next(FaultSite::kServer, "y");
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.find_counter("faults_injected_total", "connection_reset")->value, 2u);
}

TEST(InjectedFault, CarriesKind) {
  const InjectedFault fault(FaultKind::kTornWrite, "boom");
  EXPECT_EQ(fault.kind(), FaultKind::kTornWrite);
  EXPECT_STREQ(fault.what(), "boom");
}

// ---- CircuitBreaker --------------------------------------------------------------

TEST(CircuitBreaker, LifecycleUnderVirtualClock) {
  VirtualClock clock;
  net::CircuitBreaker::Options options;
  options.failure_threshold = 3;
  options.open_timeout = 250ms;
  options.clock = &clock;
  net::CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.record_failure());
  EXPECT_FALSE(breaker.record_failure());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.record_failure());  // third consecutive failure trips
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_total(), 1u);
  EXPECT_FALSE(breaker.allow());

  clock.advance(251ms);
  EXPECT_TRUE(breaker.allow());  // half-open: one probe admitted
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // probe budget spent
  breaker.record_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow());
}

TEST(CircuitBreaker, FailedProbeReopens) {
  VirtualClock clock;
  net::CircuitBreaker::Options options;
  options.failure_threshold = 1;
  options.open_timeout = 100ms;
  options.clock = &clock;
  net::CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.record_failure());
  clock.advance(101ms);
  EXPECT_TRUE(breaker.allow());           // half-open probe
  EXPECT_TRUE(breaker.record_failure());  // probe failed: re-open counts as a trip
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_total(), 2u);
  EXPECT_FALSE(breaker.allow());  // timeout restarted
  clock.advance(101ms);
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, SuccessResetsFailureStreak) {
  net::CircuitBreaker::Options options;
  options.failure_threshold = 2;
  net::CircuitBreaker breaker(options);
  EXPECT_FALSE(breaker.record_failure());
  breaker.record_success();  // streak broken
  EXPECT_FALSE(breaker.record_failure());
  EXPECT_EQ(breaker.state(), net::CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  net::CircuitBreaker::Options options;
  options.failure_threshold = 0;
  net::CircuitBreaker breaker(options);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(breaker.record_failure());
    EXPECT_TRUE(breaker.allow());
  }
  EXPECT_EQ(breaker.opened_total(), 0u);
}

// ---- client/server seams over real sockets ---------------------------------------

TEST(ClientSeam, SyntheticHttp500NeverReachesTheServer) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "real");
  });
  FaultPlan plan;
  plan.seed = 3;
  plan.max_faults_per_key = 2;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kHttp500, 1.0, {}});
  FaultInjector injector(plan);
  net::HttpClient client("127.0.0.1", server.port(),
                         net::ClientOptions{.faults = &injector});

  EXPECT_EQ(client.get("/x").status, 500);
  EXPECT_EQ(client.get("/x").status, 500);
  EXPECT_EQ(server.requests_served(), 0u);  // synthetic: no network involved

  const auto clean = client.get("/x");  // cap reached: the real server answers
  EXPECT_EQ(clean.status, 200);
  EXPECT_EQ(clean.body, "real");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST(ClientSeam, ConnectRefusedThrowsThenRecovers) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "up");
  });
  FaultPlan plan;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kConnect, FaultKind::kConnectRefused, 1.0, {}});
  FaultInjector injector(plan);
  net::HttpClient client("127.0.0.1", server.port(),
                         net::ClientOptions{.faults = &injector});

  EXPECT_THROW((void)client.get("/x"), std::system_error);
  EXPECT_EQ(client.get("/x").status, 200);
}

TEST(ClientSeam, InjectedResetBypassesPersistentRetry) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "up");
  });
  FaultPlan plan;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kConnectionReset, 1.0, {}});
  FaultInjector injector(plan);
  net::PersistentHttpClient client("127.0.0.1", server.port(),
                                   net::ClientOptions{.faults = &injector});

  // Warm the connection up so the transparent reconnect-retry would be armed.
  // (First exchange is clean only because the fault rule hits call 0 — so
  // keep it simple: the injected reset must throw even though a genuine
  // stale-connection error would have been retried.)
  EXPECT_THROW((void)client.get("/x"), std::system_error);
  EXPECT_EQ(client.get("/x").status, 200);
}

TEST(ClientSeam, InjectedLatencyAdvancesVirtualTimeOnly) {
  net::HttpServer server(net::ServerOptions{}, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "slow");
  });
  VirtualClock clock;
  FaultPlan plan;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kExchange, FaultKind::kLatency, 1.0, 5000ms});
  FaultInjector injector(plan);
  net::HttpClient client("127.0.0.1", server.port(),
                         net::ClientOptions{.clock = &clock, .faults = &injector});

  const auto wall_start = std::chrono::steady_clock::now();
  EXPECT_EQ(client.get("/x").status, 200);
  EXPECT_GE(clock.elapsed(), 5000ms);
  EXPECT_LT(std::chrono::steady_clock::now() - wall_start, 2s);
}

TEST(ServerSeam, InjectsResponsesAndResets) {
  FaultPlan plan;
  plan.seed = 5;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kServer, FaultKind::kHttp429, 1.0, {}});
  FaultInjector injector(plan);
  std::atomic<int> handled{0};
  net::ServerOptions options;
  options.faults = &injector;
  net::HttpServer server(options, [&handled](const net::HttpRequest&) {
    ++handled;
    return net::HttpResponse::text(200, "handled");
  });
  net::HttpClient client("127.0.0.1", server.port());

  EXPECT_EQ(client.get("/t").status, 429);  // synthesized before the handler
  EXPECT_EQ(handled.load(), 0);
  EXPECT_EQ(client.get("/t").status, 200);
  EXPECT_EQ(handled.load(), 1);
}

TEST(ServerSeam, ConnectionResetDropsTheExchange) {
  FaultPlan plan;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kServer, FaultKind::kConnectionReset, 1.0, {}});
  FaultInjector injector(plan);
  net::ServerOptions options;
  options.faults = &injector;
  net::HttpServer server(options, [](const net::HttpRequest&) {
    return net::HttpResponse::text(200, "fine");
  });
  net::HttpClient client("127.0.0.1", server.port());

  EXPECT_THROW((void)client.get("/t"), std::exception);  // abrupt close
  EXPECT_EQ(client.get("/t").status, 200);
}

// ---- torn writes stay off the final path -----------------------------------------

TEST(TornWrite, SaveBinaryLeavesOriginalIntact) {
  const std::filesystem::path dir(::testing::TempDir());
  const auto path = dir / "chaos_torn_events.bin";
  std::filesystem::remove(path);

  events::EventLog original(events::Columns::kDay);
  original.append(1, 10, 3, 0, 0);
  original.append(2, 20, 4, 0, 0);
  events::save_binary(original, path);

  events::EventLog replacement(events::Columns::kDay);
  replacement.append(9, 90, 7, 0, 0);

  FaultPlan plan;
  plan.max_faults_per_key = 1;
  plan.rules.push_back({FaultSite::kFileWrite, FaultKind::kTornWrite, 1.0, {}});
  FaultInjector injector(plan);
  EXPECT_THROW(events::save_binary(replacement, path, {.faults = &injector}),
               InjectedFault);

  // The final path still holds the previous complete version, and the
  // staging file was cleaned up on unwind.
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  const events::EventLog loaded = events::load_binary(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.user()[0], 1u);
  EXPECT_EQ(loaded.app()[1], 20u);

  // The injector's cap is spent: the next save goes through.
  events::save_binary(replacement, path, {.faults = &injector});
  EXPECT_EQ(events::load_binary(path).size(), 1u);
}

TEST(FileFaults, CorruptFileChangesBytes) {
  const std::filesystem::path dir(::testing::TempDir());
  const auto path = dir / "chaos_corrupt_target.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 256; ++i) out.put(static_cast<char>(i));
  }
  util::Rng rng(123);
  const std::string what = corrupt_file(path, rng);
  EXPECT_FALSE(what.empty());
  const auto size = std::filesystem::file_size(path);
  EXPECT_LE(size, 256u);
}

}  // namespace
}  // namespace appstore::chaos

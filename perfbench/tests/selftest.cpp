// Tests of the benchmark's own parts: schedule determinism, the open-loop
// load generator's accounting of backlog wait, and span self time. Exit
// code 0 when every test passes.
//
//   perfbench_selftest
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/clock.hpp"
#include "loadgen.hpp"
#include "schedule.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool same(const std::vector<std::vector<Op>>& a, const std::vector<std::vector<Op>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    if (a[c].size() != b[c].size()) return false;
    for (std::size_t i = 0; i < a[c].size(); ++i) {
      if (a[c][i].target != b[c][i].target || a[c][i].due_ns != b[c][i].due_ns ||
          a[c][i].endpoint != b[c][i].endpoint) {
        return false;
      }
    }
  }
  return true;
}

void schedule_is_deterministic() {
  StoreShape shape{.app_ids = {}, .category_count = 34, .user_count = 1200, .per_page = 100,
                   .last_day = 59};
  for (std::uint32_t app = 0; app < 600; ++app) shape.app_ids.push_back(app * 2);
  const auto a = build_open_loop(7, shape, 4, 500.0, 2.0);
  const auto b = build_open_loop(7, shape, 4, 500.0, 2.0);
  const auto c = build_open_loop(8, shape, 4, 500.0, 2.0);
  expect(same(a, b), "one seed gives an identical open-loop schedule");
  expect(!same(a, c), "a different seed gives a different open-loop schedule");
  std::size_t ops = 0;
  bool versioned = true;
  for (const auto& client : a) {
    for (const Op& op : client) {
      ++ops;
      versioned = versioned && op.target.rfind("/api/v1/", 0) == 0;
    }
  }
  expect(versioned, "every target is on /api/v1");
  expect(ops > 800 && ops < 1200, "about rate x duration ops: " + std::to_string(ops));
}

void load_generator_counts_backlog_wait() {
  // One client, ops due every 1 ms; the first call stalls for 10 ms of
  // virtual time, the rest take 0.1 ms. Ops 1..9 were due while the stall
  // ran, so their latency includes the backlog they waited behind.
  appstore::chaos::VirtualClock clock;
  std::vector<std::int64_t> due;
  for (int i = 0; i < 20; ++i) due.push_back(i * 1'000'000LL);
  const auto samples = drive(
      {due},
      [&](std::size_t, std::size_t index) {
        clock.advance(std::chrono::microseconds(index == 0 ? 10'000 : 100));
        return index != 3;
      },
      &clock);
  const auto& s = samples.at(0);
  expect(s[0].latency_ns() == 10'000'000, "stalled op latency is its own service time");
  // Op 1 is due at 1 ms, starts at 10 ms and ends at 10.1 ms.
  expect(s[1].latency_ns() == 9'100'000, "op 1 latency counts 9 ms of backlog wait");
  expect(s[1].lateness_ns() == 9'000'000, "op 1 lateness is 9 ms");
  // Op k (1..10) starts at 10 + 0.1 (k - 1) ms, so its latency is
  // 10.1 + 0.1 (k - 1) - k ms.
  for (int k = 1; k <= 10; ++k) {
    const std::int64_t expected = 10'100'000 + 100'000LL * (k - 1) - 1'000'000LL * k;
    expect(s[k].latency_ns() == expected,
           "op " + std::to_string(k) + " latency from due time: " +
               std::to_string(s[k].latency_ns()) + " vs " + std::to_string(expected));
  }
  expect(s[19].latency_ns() == 100'000, "once caught up, latency is the service time");
  expect(s[19].lateness_ns() == 0, "once caught up, the load generator is on time");
  expect(s[2].ok && !s[3].ok, "a failed op is reported as failed");
}

void self_time_subtracts_child_coverage() {
  Span parent{.name = "p", .id = 1, .parent = 0, .start_ns = 0, .end_ns = 100};
  // Children cover [10, 30) and [20, 50) (overlapping: 40 ns together) and
  // [90, 120) clipped to [90, 100): 50 ns covered in all.
  const std::vector<Span> children = {
      {.name = "a", .id = 2, .parent = 1, .start_ns = 10, .end_ns = 30},
      {.name = "b", .id = 3, .parent = 1, .start_ns = 20, .end_ns = 50},
      {.name = "c", .id = 4, .parent = 1, .start_ns = 90, .end_ns = 120},
  };
  expect(self_time_ns(parent, children) == 50, "self time = duration - child coverage");
  std::vector<Span> all = {parent};
  all.insert(all.end(), children.begin(), children.end());
  const auto self = self_times_ns(all);
  expect(self[0] == 50 && self[1] == 20 && self[2] == 30, "self times by parent id");

  Tracer tracer(true);
  {
    const auto outer = tracer.span("outer");
    const auto inner = tracer.span("inner");
  }
  const auto spans = tracer.spans();
  expect(spans.size() == 2 && spans[0].parent == spans[1].id, "nested span has its parent");
  Tracer off(false);
  { const auto ignored = off.span("x"); }
  expect(off.spans().empty(), "a disabled tracer records nothing");
}

}  // namespace

int main() {
  schedule_is_deterministic();
  load_generator_counts_backlog_wait();
  self_time_subtracts_child_coverage();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all tests passed\n");
  return 0;
}

// Unit tests for cache replacement policies and the hit-ratio simulator.
#include <gtest/gtest.h>

#include "cache/policy.hpp"
#include "cache/sim.hpp"
#include "stats/zipf.hpp"
#include "util/rng.hpp"

namespace appstore::cache {
namespace {

// ---- LRU -----------------------------------------------------------------------

TEST(Lru, HitAndMissBasics) {
  LruCache cache(2);
  EXPECT_FALSE(cache.access(1));
  EXPECT_FALSE(cache.access(2));
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(2));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  (void)cache.access(1);
  (void)cache.access(2);
  (void)cache.access(1);  // 1 is now most recent
  (void)cache.access(3);  // evicts 2
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Lru, CapacityNeverExceeded) {
  LruCache cache(5);
  for (std::uint32_t a = 0; a < 100; ++a) {
    (void)cache.access(a);
    EXPECT_LE(cache.size(), 5u);
  }
}

TEST(Lru, ZeroCapacityThrows) { EXPECT_THROW(LruCache(0), std::invalid_argument); }

// ---- FIFO ----------------------------------------------------------------------

TEST(Fifo, HitDoesNotRefresh) {
  FifoCache cache(2);
  (void)cache.access(1);
  (void)cache.access(2);
  EXPECT_TRUE(cache.access(1));  // hit, but no recency bump in FIFO
  (void)cache.access(3);         // evicts 1 (oldest admission)
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

// ---- LFU -----------------------------------------------------------------------

TEST(Lfu, EvictsLeastFrequent) {
  LfuCache cache(2);
  (void)cache.access(1);
  (void)cache.access(1);
  (void)cache.access(1);
  (void)cache.access(2);
  (void)cache.access(3);  // evicts 2 (frequency 1 < 3)
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
}

TEST(Lfu, TieBreaksByRecency) {
  LfuCache cache(2);
  (void)cache.access(1);
  (void)cache.access(2);
  (void)cache.access(3);  // 1 and 2 both freq 1; 1 is older -> evicted
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

// ---- RANDOM --------------------------------------------------------------------

TEST(Random, StaysWithinCapacity) {
  RandomCache cache(3, 42);
  for (std::uint32_t a = 0; a < 50; ++a) {
    (void)cache.access(a);
    EXPECT_LE(cache.size(), 3u);
  }
  EXPECT_EQ(cache.size(), 3u);
}

TEST(Random, HitsOnResidentApp) {
  RandomCache cache(3, 42);
  (void)cache.access(1);
  EXPECT_TRUE(cache.access(1));
}

// ---- CLUSTER-LRU ------------------------------------------------------------------

TEST(ClusterLru, ProtectsActiveCategory) {
  // Apps 0..3 in category 0; apps 4..7 in category 1.
  std::vector<std::uint32_t> app_category = {0, 0, 0, 0, 1, 1, 1, 1};
  ClusterLruCache cache(3, app_category);
  (void)cache.access(4);  // category 1
  (void)cache.access(0);  // category 0
  (void)cache.access(1);  // category 0 (most recent category)
  // Cache full {4,0,1}; inserting another category-0 app must evict from the
  // least-recently-ACTIVE category (1), i.e. app 4, not LRU app 0.
  (void)cache.access(2);
  EXPECT_FALSE(cache.contains(4));
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(ClusterLru, EvictsWithinOnlyCategory) {
  std::vector<std::uint32_t> app_category = {0, 0, 0};
  ClusterLruCache cache(2, app_category);
  (void)cache.access(0);
  (void)cache.access(1);
  (void)cache.access(2);  // evicts 0 (LRU inside category 0)
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ClusterLru, HitBumpsAppAndCategory) {
  std::vector<std::uint32_t> app_category = {0, 0, 1, 1};
  ClusterLruCache cache(2, app_category);
  (void)cache.access(0);
  (void)cache.access(2);
  EXPECT_TRUE(cache.access(0));  // bump category 0
  (void)cache.access(1);         // should evict from category 1 -> app 2
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

// ---- factory / warm ------------------------------------------------------------------

TEST(Factory, AllKindsConstruct) {
  const std::vector<std::uint32_t> app_category = {0, 1, 0, 1};
  for (const auto kind : {PolicyKind::kLru, PolicyKind::kFifo, PolicyKind::kLfu,
                          PolicyKind::kRandom, PolicyKind::kClusterLru}) {
    const auto policy = make_policy(kind, 2, app_category, 1);
    EXPECT_EQ(policy->capacity(), 2u);
    EXPECT_EQ(policy->name(), to_string(kind));
  }
}

TEST(Warm, FillsToCapacityOnly) {
  LruCache cache(3);
  const std::vector<std::uint32_t> top = {0, 1, 2, 3, 4};
  cache.warm(top);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
}

// ---- simulation -------------------------------------------------------------------------

TEST(Sim, HitRatioComputation) {
  LruCache cache(2);
  const std::vector<std::uint32_t> apps = {1, 1, 2, 1, 3, 1};
  const SimResult result = simulate(cache, apps, {});
  EXPECT_EQ(result.requests, 6u);
  // miss(1) hit(1) miss(2) hit(1) miss(3,evict 2) hit(1) -> 3 hits
  EXPECT_EQ(result.hits, 3u);
  EXPECT_NEAR(result.hit_ratio(), 0.5, 1e-12);
}

TEST(Sim, WarmTopNHelpsPopularFirstRequest) {
  LruCache cold(2);
  const std::vector<std::uint32_t> apps = {0, 1};
  const SimResult cold_result = simulate(cold, apps, {});
  EXPECT_EQ(cold_result.hits, 0u);

  LruCache warm(2);
  const SimResult warm_result = simulate(warm, apps, {.warm_top_n = 2});
  EXPECT_EQ(warm_result.hits, 2u);
}

TEST(Sim, SweepSizesMonotoneForLru) {
  // Cyclic stream over 30 apps: bigger LRU can only do better.
  std::vector<std::uint32_t> apps;
  for (int round = 0; round < 20; ++round) {
    for (std::uint32_t a = 0; a < 30; ++a) apps.push_back(a);
  }
  const std::vector<std::size_t> sizes = {5, 10, 20, 30};
  const auto points = sweep_cache_sizes(PolicyKind::kLru, sizes, apps);
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].hit_ratio, points[i - 1].hit_ratio - 1e-12);
  }
  // Full-size cache over a cyclic stream: everything hits after warm-up
  // (the sweep warms with the top-30 apps, so 100%).
  EXPECT_NEAR(points.back().hit_ratio, 1.0, 1e-12);
}

TEST(Sim, EmptyStream) {
  LruCache cache(2);
  const SimResult result = simulate(cache, std::span<const std::uint32_t>{}, {});
  EXPECT_EQ(result.requests, 0u);
  EXPECT_DOUBLE_EQ(result.hit_ratio(), 0.0);
}


// ---- parameterized policy properties ------------------------------------------

class PolicyProperty : public ::testing::TestWithParam<PolicyKind> {
 protected:
  [[nodiscard]] std::unique_ptr<CachePolicy> make(std::size_t capacity) const {
    std::vector<std::uint32_t> app_category(1000);
    for (std::uint32_t a = 0; a < app_category.size(); ++a) app_category[a] = a % 10;
    return make_policy(GetParam(), capacity, app_category, 99);
  }
};

TEST_P(PolicyProperty, CapacityNeverExceeded) {
  const auto policy = make(7);
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    (void)policy->access(static_cast<std::uint32_t>(rng.below(1000)));
    ASSERT_LE(policy->size(), 7u);
  }
}

TEST_P(PolicyProperty, ImmediateReaccessAlwaysHits) {
  const auto policy = make(7);
  util::Rng rng(37);
  for (int i = 0; i < 500; ++i) {
    const auto app = static_cast<std::uint32_t>(rng.below(1000));
    (void)policy->access(app);
    EXPECT_TRUE(policy->access(app)) << "app " << app;
  }
}

TEST_P(PolicyProperty, ContainsConsistentWithAccess) {
  const auto policy = make(5);
  util::Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    const auto app = static_cast<std::uint32_t>(rng.below(50));
    const bool resident_before = policy->contains(app);
    const bool hit = policy->access(app);
    EXPECT_EQ(hit, resident_before);
    EXPECT_TRUE(policy->contains(app));
  }
}

TEST_P(PolicyProperty, WarmPopulatesTopApps) {
  const auto policy = make(10);
  std::vector<std::uint32_t> top(20);
  for (std::uint32_t a = 0; a < 20; ++a) top[a] = a;
  policy->warm(top);
  EXPECT_EQ(policy->size(), 10u);
  for (std::uint32_t a = 0; a < 10; ++a) EXPECT_TRUE(policy->contains(a));
}

TEST_P(PolicyProperty, SkewedStreamBeatsUniformStream) {
  // Every policy exploits skew: hit ratio on a Zipf(1.5) stream must beat a
  // uniform stream over the same universe with the same cache size.
  const std::size_t capacity = 50;
  const std::uint32_t universe = 1000;
  const stats::ZipfSampler zipf(universe, 1.5);
  util::Rng rng(43);

  const auto run = [&](auto&& draw) {
    const auto policy = make(capacity);
    std::uint64_t hits = 0;
    constexpr int kRequests = 20000;
    for (int i = 0; i < kRequests; ++i) {
      if (policy->access(draw())) ++hits;
    }
    return static_cast<double>(hits) / kRequests;
  };
  const double skewed = run([&] { return static_cast<std::uint32_t>(zipf.sample_index(rng)); });
  const double uniform = run([&] { return static_cast<std::uint32_t>(rng.below(universe)); });
  EXPECT_GT(skewed, uniform + 0.2);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(PolicyKind::kLru, PolicyKind::kFifo,
                                           PolicyKind::kLfu, PolicyKind::kRandom,
                                           PolicyKind::kClusterLru),
                         [](const auto& info) {
                           std::string name(to_string(info.param));
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace appstore::cache

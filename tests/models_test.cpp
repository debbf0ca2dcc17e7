// Unit + property tests for the three §5 download models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>

#include "models/app_clustering_model.hpp"
#include "models/model.hpp"
#include "models/stream.hpp"
#include "models/zipf_amo_model.hpp"
#include "models/zipf_model.hpp"
#include "stats/correlation.hpp"
#include "stats/powerlaw.hpp"
#include "stats/zipf.hpp"

namespace appstore::models {
namespace {

ModelParams small_params() {
  ModelParams params;
  params.app_count = 500;
  params.user_count = 400;
  params.downloads_per_user = 10.0;
  params.zr = 1.4;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 10;
  return params;
}

// ---- ClusterLayout -------------------------------------------------------------

TEST(ClusterLayout, RoundRobinBalanced) {
  const auto layout = ClusterLayout::round_robin(103, 10);
  EXPECT_EQ(layout.cluster_count(), 10u);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < 10; ++c) {
    const auto size = layout.members(c).size();
    EXPECT_GE(size, 10u);
    EXPECT_LE(size, 11u);
    total += size;
  }
  EXPECT_EQ(total, 103u);
}

TEST(ClusterLayout, RoundRobinWithinRanksFollowGlobalOrder) {
  const auto layout = ClusterLayout::round_robin(30, 3);
  // App 0 (global rank 1) is rank 1 in cluster 0; app 3 is rank 2 there.
  EXPECT_EQ(layout.cluster_of(0), 0u);
  EXPECT_EQ(layout.within_rank(0), 1u);
  EXPECT_EQ(layout.cluster_of(3), 0u);
  EXPECT_EQ(layout.within_rank(3), 2u);
  EXPECT_EQ(layout.cluster_of(1), 1u);
  EXPECT_EQ(layout.within_rank(1), 1u);
}

TEST(ClusterLayout, ContiguousBlocks) {
  const auto layout = ClusterLayout::contiguous(10, 2);
  for (std::uint32_t a = 0; a < 5; ++a) EXPECT_EQ(layout.cluster_of(a), 0u);
  for (std::uint32_t a = 5; a < 10; ++a) EXPECT_EQ(layout.cluster_of(a), 1u);
}

TEST(ClusterLayout, FromAssignmentPreservesOrder) {
  const auto layout = ClusterLayout::from_assignment({2, 0, 2, 1, 0});
  EXPECT_EQ(layout.cluster_count(), 3u);
  EXPECT_EQ(layout.within_rank(0), 1u);  // first app in cluster 2
  EXPECT_EQ(layout.within_rank(2), 2u);  // second app in cluster 2
  EXPECT_EQ(layout.members(0), (std::vector<std::uint32_t>{1, 4}));
}

TEST(ClusterLayout, RandomCoversAllApps) {
  util::Rng rng(5);
  const auto layout = ClusterLayout::random(200, 7, rng);
  std::size_t total = 0;
  for (std::uint32_t c = 0; c < layout.cluster_count(); ++c) {
    total += layout.members(c).size();
  }
  EXPECT_EQ(total, 200u);
}

TEST(ClusterLayout, ZeroClustersThrows) {
  EXPECT_THROW((void)ClusterLayout::round_robin(10, 0), std::invalid_argument);
  EXPECT_THROW((void)ClusterLayout::contiguous(10, 0), std::invalid_argument);
}

// ---- ZIPF model ------------------------------------------------------------------

TEST(ZipfModel, TotalDownloadsMatch) {
  ModelParams params = small_params();
  const ZipfModel model(params);
  util::Rng rng(1);
  const Workload workload = model.generate(rng);
  EXPECT_EQ(workload.total(), params.user_count * 10);
}

TEST(ZipfModel, HeadIsMorePopular) {
  const ZipfModel model(small_params());
  util::Rng rng(2);
  const Workload workload = model.generate(rng);
  // Rank-1 app should dominate the median app by a large factor under zr=1.4.
  EXPECT_GT(workload.downloads[0], workload.downloads[250] * 5);
}

TEST(ZipfModel, ExpectedMatchesAnalyticTotal) {
  const ZipfModel model(small_params());
  const auto expected = model.expected_downloads();
  double total = 0.0;
  for (const double e : expected) total += e;
  EXPECT_NEAR(total, small_params().total_downloads(), 1e-6);
}

TEST(ZipfModel, MonteCarloTracksAnalytic) {
  ModelParams params = small_params();
  params.user_count = 5000;  // more samples → tighter head estimate
  const ZipfModel model(params);
  util::Rng rng(3);
  const Workload workload = model.generate(rng);
  const auto expected = model.expected_downloads();
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(static_cast<double>(workload.downloads[a]), expected[a],
                expected[a] * 0.1 + 10)
        << "app " << a;
  }
}

TEST(ZipfModel, AllowsRepeatDownloadsPerUser) {
  ModelParams params = small_params();
  params.app_count = 3;
  params.zr = 2.0;
  params.downloads_per_user = 3.0;  // cap: min(count, app_count) = 3
  const ZipfModel model(params);
  util::Rng rng(4);
  const Workload workload = model.generate(rng, true);
  bool found_repeat = false;
  for (const auto& sequence : workload.user_sequences()) {
    std::set<std::uint32_t> unique(sequence.begin(), sequence.end());
    if (unique.size() < sequence.size()) found_repeat = true;
  }
  EXPECT_TRUE(found_repeat);  // pure ZIPF has no fetch-at-most-once
}

// ---- ZIPF-at-most-once -------------------------------------------------------------

TEST(ZipfAmo, NoUserDownloadsTwice) {
  const ZipfAtMostOnceModel model(small_params());
  util::Rng rng(5);
  const Workload workload = model.generate(rng, true);
  for (const auto& sequence : workload.user_sequences()) {
    std::set<std::uint32_t> unique(sequence.begin(), sequence.end());
    EXPECT_EQ(unique.size(), sequence.size());
  }
}

TEST(ZipfAmo, HeadSaturatesBelowUsers) {
  ModelParams params = small_params();
  params.zr = 2.5;  // extreme skew: rank 1 hit by nearly every user
  const ZipfAtMostOnceModel model(params);
  util::Rng rng(6);
  const Workload workload = model.generate(rng);
  EXPECT_LE(workload.downloads[0], params.user_count);
  EXPECT_GT(workload.downloads[0], params.user_count * 9 / 10);
}

TEST(ZipfAmo, AnalyticBoundedByUsers) {
  const ZipfAtMostOnceModel model(small_params());
  for (const double e : model.expected_downloads()) {
    EXPECT_LE(e, static_cast<double>(small_params().user_count));
  }
}

TEST(ZipfAmo, MonteCarloTracksAnalyticHeadInDilutRegime) {
  // The closed form U*(1-(1-p)^d) treats rejected redraws as fresh draws, so
  // it is accurate when d * pmf(1) is small (here pmf(1) ≈ 0.12, d = 3).
  ModelParams params;
  params.app_count = 2000;
  params.user_count = 5000;
  params.downloads_per_user = 3.0;
  params.zr = 1.0;
  const ZipfAtMostOnceModel model(params);
  util::Rng rng(7);
  const Workload workload = model.generate(rng);
  const auto expected = model.expected_downloads();
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_NEAR(static_cast<double>(workload.downloads[a]), expected[a],
                expected[a] * 0.12 + 10);
  }
}

TEST(ZipfAmo, AnalyticIsLowerBoundUnderStrongSkew) {
  // With heavy skew the rejection-redraw loop effectively samples without
  // replacement, hitting the head MORE often than d independent draws — the
  // closed form under-counts. Verify the direction of that bias.
  ModelParams params = small_params();
  params.user_count = 3000;
  const ZipfAtMostOnceModel model(params);
  util::Rng rng(7);
  const Workload workload = model.generate(rng);
  const auto expected = model.expected_downloads();
  for (std::size_t a = 0; a < 3; ++a) {
    EXPECT_GT(static_cast<double>(workload.downloads[a]), expected[a] * 0.95);
  }
}

TEST(ZipfAmo, ExhaustsWhenDemandExceedsApps) {
  ModelParams params;
  params.app_count = 5;
  params.user_count = 10;
  params.downloads_per_user = 50.0;  // far beyond the 5 available apps
  params.zr = 1.0;
  const ZipfAtMostOnceModel model(params);
  util::Rng rng(8);
  const Workload workload = model.generate(rng, true);
  for (const auto& sequence : workload.user_sequences()) {
    EXPECT_EQ(sequence.size(), 5u);  // capped at app_count
  }
  EXPECT_EQ(workload.total(), 50u);
}

TEST(DrawUnfetched, FallbackTerminatesAndIsUnfetched) {
  // Sampler always returns app 0, which is fetched: forces the fallback.
  FetchedSet fetched(4);
  fetched.insert(0);
  util::Rng rng(9);
  const std::uint32_t app = draw_unfetched(
      rng, fetched, [](util::Rng&) { return 0u; }, 4);
  EXPECT_NE(app, 0u);
  EXPECT_LT(app, 4u);
}

TEST(DrawUnfetched, MemberFallbackStaysInTheCluster) {
  // Members 10, 20, 30 of a 40-app universe; 10 and 30 are fetched and the
  // sampler always hits member 0, so the fallback must return 20.
  FetchedSet fetched(40);
  fetched.insert(10);
  fetched.insert(30);
  fetched.insert(5);  // outside the cluster: not counted
  const std::vector<std::uint32_t> members = {10, 20, 30};
  util::Rng rng(9);
  const std::uint32_t app = draw_unfetched_member(
      rng, fetched, members, 2, [](util::Rng&) { return std::size_t{0}; }, 4);
  EXPECT_EQ(app, 20u);
}

TEST(FetchedSet, WordEdgesFetchOrderAndReset) {
  // A = 130 spans three words; ids 0, 63, 64 and A-1 sit on word edges.
  constexpr std::uint32_t kApps = 130;
  const std::vector<std::uint32_t> apps = {64, 0, kApps - 1, 63, 65, 127, 128, 1};
  FetchedSet fetched(kApps);
  EXPECT_EQ(fetched.universe(), kApps);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    fetched.insert(apps[i]);
    ASSERT_EQ(fetched.size(), i + 1);
    for (std::uint32_t app = 0; app < kApps; ++app) {
      const bool inserted =
          std::find(apps.begin(), apps.begin() + static_cast<std::ptrdiff_t>(i + 1), app) !=
          apps.begin() + static_cast<std::ptrdiff_t>(i + 1);
      ASSERT_EQ(fetched.contains(app), inserted) << "app " << app << " after " << i + 1;
    }
    for (std::size_t j = 0; j <= i; ++j) ASSERT_EQ(fetched[j], apps[j]);
  }

  fetched.reset();
  EXPECT_EQ(fetched.size(), 0u);
  for (std::uint32_t app = 0; app < kApps; ++app) {
    ASSERT_FALSE(fetched.contains(app)) << "app " << app << " survived reset";
  }
  // A reset set fills exactly like a fresh one.
  fetched.insert(kApps - 1);
  fetched.insert(63);
  EXPECT_EQ(fetched.size(), 2u);
  EXPECT_EQ(fetched[0], kApps - 1);
  EXPECT_EQ(fetched[1], 63u);
  EXPECT_TRUE(fetched.contains(63));
  EXPECT_FALSE(fetched.contains(64));
  EXPECT_EQ(fetched.nth_unfetched(0), 0u);
  EXPECT_EQ(fetched.nth_unfetched(63), 64u);
  EXPECT_EQ(fetched.nth_unfetched(kApps - 3), kApps - 2);
}

TEST(FetchedSet, SortedWalkMatchesSkipCountOn10kSeeds) {
  // nth_unfetched walks the sorted fetched ids; the reference skip-counts
  // every app of the universe. Targets cover both ends of the remaining
  // range plus one random interior value per seed.
  for (std::uint64_t seed = 0; seed < 10'000; ++seed) {
    util::Rng rng(seed);
    const auto universe = static_cast<std::uint32_t>(1 + rng.below(seed % 4 == 0 ? 8 : 300));
    const auto fetch_count = static_cast<std::uint32_t>(rng.below(universe));
    std::vector<std::uint32_t> ids(universe);
    for (std::uint32_t app = 0; app < universe; ++app) ids[app] = app;
    rng.shuffle(std::span<std::uint32_t>(ids));
    FetchedSet fetched(universe);
    for (std::uint32_t k = 0; k < fetch_count; ++k) fetched.insert(ids[k]);

    const std::uint32_t remaining = universe - fetch_count;
    const auto skip_count = [&](std::uint32_t target) {
      for (std::uint32_t app = 0; app < universe; ++app) {
        if (fetched.contains(app)) continue;
        if (target == 0) return app;
        --target;
      }
      return universe;  // no such app
    };
    for (const std::uint32_t target :
         {0u, remaining - 1, static_cast<std::uint32_t>(rng.below(remaining))}) {
      ASSERT_EQ(fetched.nth_unfetched(target), skip_count(target))
          << "seed " << seed << " A=" << universe << " fetched=" << fetch_count
          << " target=" << target;
    }
  }
}

// ---- APP-CLUSTERING -----------------------------------------------------------------

TEST(AppClustering, NoUserDownloadsTwice) {
  const AppClusteringModel model(small_params(),
                                 ClusterLayout::round_robin(500, 10));
  util::Rng rng(10);
  const Workload workload = model.generate(rng, true);
  for (const auto& sequence : workload.user_sequences()) {
    std::set<std::uint32_t> unique(sequence.begin(), sequence.end());
    EXPECT_EQ(unique.size(), sequence.size());
  }
}

TEST(AppClustering, SequencesShowClusterAffinity) {
  ModelParams params = small_params();
  params.p = 0.95;
  const ClusterLayout layout = ClusterLayout::round_robin(params.app_count, 10);
  const AppClusteringModel model(params, layout);
  util::Rng rng(11);
  const Workload workload = model.generate(rng, true);

  // Fraction of consecutive pairs within the same cluster should vastly
  // exceed the ~1/10 random-walk baseline.
  std::uint64_t same = 0;
  std::uint64_t pairs = 0;
  for (const auto& sequence : workload.user_sequences()) {
    for (std::size_t i = 1; i < sequence.size(); ++i) {
      same += layout.cluster_of(sequence[i]) == layout.cluster_of(sequence[i - 1]) ? 1 : 0;
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 0u);
  const double affinity = static_cast<double>(same) / static_cast<double>(pairs);
  EXPECT_GT(affinity, 0.4);
}

TEST(AppClustering, ZeroPReducesToAtMostOnce) {
  ModelParams params = small_params();
  params.p = 0.0;
  const AppClusteringModel clustering(params, ClusterLayout::round_robin(500, 10));
  const ZipfAtMostOnceModel amo(params);
  util::Rng rng_a(12);
  util::Rng rng_b(12);
  const auto wa = clustering.generate(rng_a);
  const auto wb = amo.generate(rng_b);
  // Same distribution family (not identical draws): compare head counts.
  EXPECT_NEAR(static_cast<double>(wa.downloads[0]), static_cast<double>(wb.downloads[0]),
              static_cast<double>(wb.downloads[0]) * 0.15 + 20);
}

TEST(AppClustering, AnalyticEquationFive) {
  // Hand-check Eq. 5 on a tiny configuration.
  ModelParams params;
  params.app_count = 4;
  params.user_count = 100;
  params.downloads_per_user = 2.0;
  params.zr = 1.0;
  params.zc = 1.0;
  params.p = 0.5;
  const ClusterLayout layout = ClusterLayout::round_robin(4, 2);
  const AppClusteringModel model(params, layout);
  const auto expected = model.expected_downloads();

  // App 0: global rank 1 of 4 (H = 1+1/2+1/3+1/4), cluster rank 1 of 2 (H=1.5).
  const double hg = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  const double pg = 1.0 / hg;
  const double pc = (1.0 / 1.0) / 1.5;
  const double manual =
      100.0 * (1.0 - std::pow(1.0 - pg, 1.0) * std::pow(1.0 - pc, 1.0));
  EXPECT_NEAR(expected[0], manual, 1e-9);
}

TEST(AppClustering, AnalyticBoundedByUsers) {
  const AppClusteringModel model(small_params(), ClusterLayout::round_robin(500, 10));
  for (const double e : model.expected_downloads()) {
    EXPECT_LE(e, static_cast<double>(small_params().user_count));
    EXPECT_GE(e, 0.0);
  }
}

TEST(AppClustering, TailMoreTruncatedThanAmoRelativeToTrunk) {
  // The clustering effect's signature (Fig. 3/8): relative to its own
  // power-law trunk, the APP-CLUSTERING curve collapses at the tail far more
  // than ZIPF-at-most-once does. (Absolute tail mass is scale-dependent, so
  // the comparison is against each curve's own trunk fit.)
  ModelParams params;
  params.app_count = 1500;
  params.user_count = 3000;
  params.downloads_per_user = 40.0;
  params.zr = 1.6;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 30;
  const AppClusteringModel clustering(params,
                                      ClusterLayout::round_robin(params.app_count, 30));
  const ZipfAtMostOnceModel amo(params);
  util::Rng rng_a(13);
  util::Rng rng_b(14);
  const auto clustering_report = stats::analyze_truncation(clustering.generate(rng_a).by_rank());
  const auto amo_report = stats::analyze_truncation(amo.generate(rng_b).by_rank());
  EXPECT_LT(clustering_report.tail_ratio, amo_report.tail_ratio);
  EXPECT_LT(clustering_report.tail_ratio, 0.5);
}

TEST(AppClustering, RejectsBadParams) {
  ModelParams params = small_params();
  params.p = 1.5;
  EXPECT_THROW(AppClusteringModel(params, ClusterLayout::round_robin(500, 10)),
               std::invalid_argument);
  ModelParams mismatch = small_params();
  EXPECT_THROW(AppClusteringModel(mismatch, ClusterLayout::round_robin(99, 10)),
               std::invalid_argument);
}

// ---- factory / realized downloads ----------------------------------------------------

TEST(Factory, MakesAllKinds) {
  const ModelParams params = small_params();
  EXPECT_EQ(make_model(ModelKind::kZipf, params)->name(), "ZIPF");
  EXPECT_EQ(make_model(ModelKind::kZipfAtMostOnce, params)->name(), "ZIPF-at-most-once");
  EXPECT_EQ(make_model(ModelKind::kAppClustering, params)->name(), "APP-CLUSTERING");
}

TEST(RealizedDownloads, FractionalMeanMatches) {
  util::Rng rng(15);
  double total = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    total += static_cast<double>(DownloadModel::realized_downloads(2.5, 1000, rng));
  }
  EXPECT_NEAR(total / kSamples, 2.5, 0.02);
}

TEST(RealizedDownloads, CapApplies) {
  util::Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(DownloadModel::realized_downloads(50.0, 5, rng), 5u);
  }
}

// ---- stream ---------------------------------------------------------------------------

TEST(Stream, CountsMatchWorkloadSemantics) {
  ModelParams params = small_params();
  params.user_count = 200;
  const ZipfAtMostOnceModel model(params);
  util::Rng rng(17);
  const auto stream = generate_stream_log(model, rng);
  EXPECT_NEAR(static_cast<double>(stream.size()), 2000.0, 1.0);  // 200 users * 10

  // Per-user at-most-once must hold across the interleaved stream too.
  std::map<std::uint32_t, std::set<std::uint32_t>> seen;
  for (const auto& request : stream) {
    EXPECT_TRUE(seen[request.user].insert(request.app).second)
        << "user " << request.user << " repeated app " << request.app;
  }
}

TEST(Stream, CapTruncatesUniformly) {
  ModelParams params = small_params();
  params.user_count = 300;
  const ZipfModel model(params);
  util::Rng rng(18);
  const auto stream = generate_stream_log(model, rng, {.max_requests = 500});
  EXPECT_EQ(stream.size(), 500u);
  // Users from the whole range should appear (no head-of-list bias).
  std::set<std::uint32_t> users;
  for (const auto& request : stream) users.insert(request.user);
  EXPECT_GT(users.size(), 200u);
  bool late_user = false;
  for (const auto u : users) {
    if (u > 250) late_user = true;
  }
  EXPECT_TRUE(late_user);
}


TEST(Stream, DeterministicForSameSeed) {
  ModelParams params = small_params();
  params.user_count = 100;
  const AppClusteringModel model(params, ClusterLayout::round_robin(500, 10));
  util::Rng rng_a(23);
  util::Rng rng_b(23);
  const auto a = generate_stream_log(model, rng_a);
  const auto b = generate_stream_log(model, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.user()[i], b.user()[i]);
    EXPECT_EQ(a.app()[i], b.app()[i]);
  }
}

TEST(Stream, AggregateCountsMatchDirectGeneration) {
  // The interleaved stream and the batch generator realize the same process;
  // aggregate head counts should agree within Monte Carlo noise.
  ModelParams params = small_params();
  params.user_count = 3000;
  const ZipfAtMostOnceModel model(params);
  util::Rng rng_stream(29);
  util::Rng rng_batch(31);
  const auto stream = generate_stream_log(model, rng_stream);
  std::vector<std::uint64_t> stream_counts(params.app_count, 0);
  for (const auto app : stream.app()) ++stream_counts[app];
  const auto batch = model.generate(rng_batch);
  for (std::size_t a = 0; a < 3; ++a) {
    const double expected = static_cast<double>(batch.downloads[a]);
    EXPECT_NEAR(static_cast<double>(stream_counts[a]), expected, expected * 0.1 + 20);
  }
}

// ---- differential: indexed sessions vs the linear-scan reference -------------------
//
// The sessions in src/models keep fetch-at-most-once state in a bitmap
// FetchedSet and per-cluster tallies, and find the fallback's target by a
// sorted walk. The reference below is the linear-scan bookkeeping they
// replaced, kept here only: a vector scanned on every contains(), a
// per-anchor count of fetched cluster members and a skip-count fallback over
// the whole universe. Both must emit the same app sequence per user and
// consume the same random draws.

namespace reference {

struct LinearFetchedSet {
  std::vector<std::uint32_t> fetched;

  [[nodiscard]] bool contains(std::uint32_t app) const noexcept {
    for (const auto f : fetched) {
      if (f == app) return true;
    }
    return false;
  }
  void insert(std::uint32_t app) { fetched.push_back(app); }
  [[nodiscard]] std::size_t size() const noexcept { return fetched.size(); }
};

/// Which rarely-taken paths a grid exercised.
struct Coverage {
  std::uint64_t fallbacks = 0;          ///< draw_unfetched uniform fallbacks
  std::uint64_t saturated_anchors = 0;  ///< anchors whose cluster was full
  std::uint64_t global_after_anchors = 0;  ///< 8 saturated anchors in a row
  std::uint64_t exhausted_users = 0;
};

template <typename SampleFn, typename MapFn>
std::uint32_t draw_unfetched(util::Rng& rng, const LinearFetchedSet& fetched,
                             std::uint32_t universe, SampleFn&& sample, MapFn&& map_index,
                             Coverage& coverage, int max_retries = 64) {
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    const std::uint32_t app = map_index(sample(rng));
    if (!fetched.contains(app)) return app;
  }
  ++coverage.fallbacks;
  std::uint32_t fetched_in_universe = 0;
  for (std::uint32_t offset = 0; offset < universe; ++offset) {
    if (fetched.contains(map_index(offset))) ++fetched_in_universe;
  }
  const std::uint32_t remaining = universe - fetched_in_universe;
  std::uint32_t target = static_cast<std::uint32_t>(rng.below(remaining));
  for (std::uint32_t offset = 0; offset < universe; ++offset) {
    const std::uint32_t app = map_index(offset);
    if (fetched.contains(app)) continue;
    if (target == 0) return app;
    --target;
  }
  return map_index(universe - 1);
}

class AmoSession {
 public:
  AmoSession(const stats::ZipfSampler& global, std::uint32_t app_count, Coverage& coverage)
      : global_(global), app_count_(app_count), coverage_(coverage) {}

  std::uint32_t next(util::Rng& rng) {
    const std::uint32_t app = draw_unfetched(
        rng, fetched_, app_count_,
        [this](util::Rng& r) { return static_cast<std::uint32_t>(global_.sample_index(r)); },
        [](std::uint32_t index) { return index; }, coverage_);
    fetched_.insert(app);
    return app;
  }
  [[nodiscard]] bool exhausted() const noexcept { return fetched_.size() >= app_count_; }

 private:
  const stats::ZipfSampler& global_;
  std::uint32_t app_count_;
  Coverage& coverage_;
  LinearFetchedSet fetched_;
};

class ClusteringSession {
 public:
  ClusteringSession(const AppClusteringModel& model, Coverage& coverage)
      : model_(model), coverage_(coverage) {}

  std::uint32_t next(util::Rng& rng) {
    const auto& layout = model_.layout();
    const auto global_draw = [&] {
      return draw_unfetched(
          rng, fetched_, model_.params().app_count,
          [this](util::Rng& r) {
            return static_cast<std::uint32_t>(model_.global_sampler().sample_index(r));
          },
          [](std::uint32_t index) { return index; }, coverage_);
    };
    std::uint32_t app = 0;
    if (fetched_.size() == 0 || !rng.chance(model_.params().p)) {
      app = global_draw();
    } else {
      app = model_.params().app_count;
      for (int anchor_attempt = 0; anchor_attempt < 8; ++anchor_attempt) {
        const std::uint32_t anchor =
            fetched_.fetched[static_cast<std::size_t>(rng.below(fetched_.size()))];
        const std::uint32_t cluster = layout.cluster_of(anchor);
        const auto& members = layout.members(cluster);
        if (fetched_in(members) >= members.size()) {
          ++coverage_.saturated_anchors;
          continue;
        }
        const auto& sampler = model_.sampler_for_cluster(cluster);
        app = draw_unfetched(
            rng, fetched_, static_cast<std::uint32_t>(members.size()),
            [&sampler](util::Rng& r) {
              return static_cast<std::uint32_t>(sampler.sample_index(r));
            },
            [&members](std::uint32_t index) { return members[index]; }, coverage_);
        break;
      }
      if (app == model_.params().app_count) {
        ++coverage_.global_after_anchors;
        app = global_draw();
      }
    }
    fetched_.insert(app);
    return app;
  }
  [[nodiscard]] bool exhausted() const noexcept {
    return fetched_.size() >= model_.params().app_count;
  }

 private:
  [[nodiscard]] std::size_t fetched_in(const std::vector<std::uint32_t>& members) const {
    std::size_t count = 0;
    for (const auto app : fetched_.fetched) {
      for (const auto member : members) {
        if (member == app) {
          ++count;
          break;
        }
      }
    }
    return count;
  }

  const AppClusteringModel& model_;
  Coverage& coverage_;
  LinearFetchedSet fetched_;
};

}  // namespace reference

/// One user's draws from `session` and from the reference, both seeded as
/// DownloadModel::generate seeds them: identical sequences, exhaustion and
/// RNG state afterwards.
template <typename Reference>
void expect_same_user(Session& session, std::uint64_t seed, std::uint64_t user,
                      const ModelParams& params, reference::Coverage& coverage,
                      Reference expected) {
  util::Rng rng = util::rng::derive(seed, user);
  const std::uint64_t count =
      DownloadModel::realized_downloads(params.downloads_per_user, params.app_count, rng);
  util::Rng reference_rng = rng;
  for (std::uint64_t k = 0; k < count; ++k) {
    ASSERT_EQ(session.exhausted(), expected.exhausted()) << "user " << user << " draw " << k;
    if (session.exhausted()) break;
    ASSERT_EQ(session.next(rng), expected.next(reference_rng))
        << "user " << user << " draw " << k;
  }
  ASSERT_EQ(session.exhausted(), expected.exhausted()) << "user " << user;
  if (expected.exhausted()) ++coverage.exhausted_users;
  ASSERT_EQ(rng(), reference_rng()) << "user " << user << ": draws consumed differ";
}

/// Runs every user of `params` through `model`'s sessions and the reference,
/// both ways a session is used: a fresh session per user, and one session
/// reset between users, as generate() and the stream workers do.
template <typename MakeReference>
void expect_same_sessions(const DownloadModel& model, const ModelParams& params,
                          std::uint64_t seed, reference::Coverage& coverage,
                          MakeReference&& make_reference) {
  for (const bool reuse : {false, true}) {
    SCOPED_TRACE(reuse ? "one session reset between users" : "a fresh session per user");
    const auto reused = model.new_session();
    for (std::uint64_t user = 0; user < params.user_count; ++user) {
      std::unique_ptr<Session> fresh;
      Session* session = reused.get();
      if (reuse) {
        reused->reset();
      } else {
        fresh = model.new_session();
        session = fresh.get();
      }
      expect_same_user(*session, seed, user, params, coverage, make_reference());
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

/// (A, d) pairs spanning d/A = 0.2 % (the paper's regime) to 150 %, past
/// exhaustion, where most draws end in the uniform fallback.
struct Shape {
  std::uint32_t apps;
  double downloads_per_user;
};
constexpr Shape kShapes[] = {{1000, 2.0}, {1000, 20.0}, {200, 20.0}, {200, 100.0},
                             {200, 300.0}};
constexpr double kZrGrid[] = {0.8, 1.8};
constexpr double kPGrid[] = {0.8, 0.95};

ModelParams differential_params(const Shape& shape, double zr, double p) {
  ModelParams params;
  params.app_count = shape.apps;
  params.user_count = 24;
  params.downloads_per_user = shape.downloads_per_user;
  params.zr = zr;
  params.zc = 1.4;
  params.p = p;
  params.cluster_count = 10;
  return params;
}

TEST(SessionDifferential, ZipfAtMostOnceMatchesLinearScan) {
  reference::Coverage coverage;
  std::uint64_t seed = 100;
  for (const Shape& shape : kShapes) {
    for (const double zr : kZrGrid) {
      const ModelParams params = differential_params(shape, zr, 0.0);
      const ZipfAtMostOnceModel model(params);
      const stats::ZipfSampler global(params.app_count, params.zr);
      SCOPED_TRACE(testing::Message() << "A=" << shape.apps << " d="
                                      << shape.downloads_per_user << " zr=" << zr);
      expect_same_sessions(model, params, ++seed, coverage, [&] {
        return reference::AmoSession(global, params.app_count, coverage);
      });
    }
  }
  EXPECT_GT(coverage.fallbacks, 0u);
  EXPECT_GT(coverage.exhausted_users, 0u);
}

TEST(SessionDifferential, AppClusteringMatchesLinearScanOnEveryLayout) {
  reference::Coverage coverage;
  std::uint64_t seed = 200;
  for (const Shape& shape : kShapes) {
    // Round-robin (equal sizes), random (unequal, possibly empty clusters)
    // and an explicit assignment mixing two-app clusters, which saturate
    // after two fetches, with a few large ones.
    util::Rng layout_rng(shape.apps + static_cast<std::uint64_t>(shape.downloads_per_user));
    std::vector<std::uint32_t> assignment(shape.apps);
    for (std::uint32_t app = 0; app < shape.apps; ++app) {
      assignment[app] = app < 60 ? app / 2 : 30 + app % 4;
    }
    const ClusterLayout layouts[] = {
        ClusterLayout::round_robin(shape.apps, 10),
        ClusterLayout::random(shape.apps, 40, layout_rng),
        ClusterLayout::from_assignment(std::move(assignment)),
    };
    for (const ClusterLayout& layout : layouts) {
      for (const double zr : kZrGrid) {
        for (const double p : kPGrid) {
          const AppClusteringModel model(differential_params(shape, zr, p), layout);
          const ModelParams& params = model.params();
          SCOPED_TRACE(testing::Message()
                       << "A=" << shape.apps << " d=" << shape.downloads_per_user
                       << " zr=" << zr << " p=" << p << " C=" << layout.cluster_count());
          expect_same_sessions(
              model, params, ++seed, coverage,
              [&] { return reference::ClusteringSession(model, coverage); });
        }
      }
    }
  }
  EXPECT_GT(coverage.fallbacks, 0u);
  EXPECT_GT(coverage.saturated_anchors, 0u);
  EXPECT_GT(coverage.global_after_anchors, 0u);
  EXPECT_GT(coverage.exhausted_users, 0u);
}

// ---- property sweep: analytic vs Monte Carlo across models --------------------------

struct ModelCase {
  ModelKind kind;
  double zr;
  double p;
};

class AnalyticVsMonteCarlo : public ::testing::TestWithParam<ModelCase> {};

TEST_P(AnalyticVsMonteCarlo, TopRankWithinModelSpecificBand) {
  const ModelCase test_case = GetParam();
  ModelParams params;
  params.app_count = 300;
  params.user_count = 4000;
  params.downloads_per_user = 8.0;
  params.zr = test_case.zr;
  params.zc = 1.4;
  params.p = test_case.p;
  params.cluster_count = 10;
  const auto model = make_model(test_case.kind, params);
  util::Rng rng(21);
  const auto workload = model->generate(rng);
  const auto expected = model->expected_downloads();
  const auto mc = static_cast<double>(workload.downloads[0]);
  switch (test_case.kind) {
    case ModelKind::kZipf:
      // Exact expectation: tight band.
      EXPECT_NEAR(mc, expected[0], expected[0] * 0.10 + 20);
      break;
    case ModelKind::kZipfAtMostOnce:
      // Closed form under-counts under skew (rejection redraws) but is a
      // sound lower bound; the boost stays moderate.
      EXPECT_GT(mc, expected[0] * 0.90);
      EXPECT_LT(mc, expected[0] * 1.6 + 20);
      break;
    case ModelKind::kAppClustering:
      // Eq. 5 credits every app its full p*d cluster draws per user, while
      // simulated users only visit clusters they anchored in — the paper's
      // form is an upper-bound-flavoured idealization at the head.
      EXPECT_LT(mc, expected[0] * 1.3 + 20);
      EXPECT_GT(mc, expected[0] * 0.25);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, AnalyticVsMonteCarlo,
    ::testing::Values(ModelCase{ModelKind::kZipf, 1.0, 0.0},
                      ModelCase{ModelKind::kZipf, 1.7, 0.0},
                      ModelCase{ModelKind::kZipfAtMostOnce, 1.2, 0.0},
                      ModelCase{ModelKind::kZipfAtMostOnce, 1.7, 0.0},
                      ModelCase{ModelKind::kAppClustering, 1.4, 0.9},
                      ModelCase{ModelKind::kAppClustering, 1.7, 0.95}));

}  // namespace
}  // namespace appstore::models

// Determinism and correctness of the src/par execution engine and every
// layer wired through it: sharded stream generation, the parallel fit
// sweep, the parallel bootstrap, and the cache-size/policy sweeps. Also the
// designated TSan target for shared-model concurrency (run with
// -DAPPSTORE_SANITIZE=thread; see ROADMAP.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/sim.hpp"
#include "core/study.hpp"
#include "fit/sweep.hpp"
#include "models/app_clustering_model.hpp"
#include "models/model.hpp"
#include "models/stream.hpp"
#include "obs/registry.hpp"
#include "par/parallel.hpp"
#include "par/pool.hpp"
#include "stats/bootstrap.hpp"
#include "util/rng.hpp"

namespace {

using namespace appstore;

models::ModelParams small_params() {
  models::ModelParams params;
  params.app_count = 400;
  params.user_count = 2'000;
  params.downloads_per_user = 8.0;
  params.zr = 1.6;
  params.zc = 1.4;
  params.p = 0.9;
  params.cluster_count = 20;
  return params;
}

// ---- plan_shards -----------------------------------------------------------

TEST(PlanShards, ExplicitGrainControlsShardCount) {
  const auto plan = par::plan_shards(100, par::Options{.threads = 4, .grain = 7});
  EXPECT_EQ(plan.grain, 7u);
  EXPECT_EQ(plan.shard_count, 15u);  // ceil(100 / 7)
}

TEST(PlanShards, AutoGrainTargetsEightShardsPerThread) {
  const auto plan = par::plan_shards(6'400, par::Options{.threads = 4});
  EXPECT_EQ(plan.grain, 200u);  // 6400 / (4 * 8)
  EXPECT_EQ(plan.shard_count, 32u);
}

TEST(PlanShards, EmptyRangeHasNoShards) {
  const auto plan = par::plan_shards(0, par::Options{.threads = 4});
  EXPECT_EQ(plan.shard_count, 0u);
}

// ---- parallel_for / map / reduce ------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> visits(1'000);
    par::parallel_for(visits.size(), par::Options{.threads = threads},
                      [&](std::uint64_t i) { visits[i].fetch_add(1); });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST(ParallelMap, OutputIsThreadCountInvariant) {
  const auto square = [](std::uint64_t i) {
    return static_cast<double>(i) * static_cast<double>(i) * 1e-3;
  };
  const auto serial = par::parallel_map<double>(5'000, par::Options{.threads = 1}, square);
  const auto parallel = par::parallel_map<double>(5'000, par::Options{.threads = 4}, square);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelReduce, FixedGrainMatchesSerialSum) {
  std::vector<double> values(10'000);
  util::Rng rng(11);
  for (auto& v : values) v = rng.uniform();
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);

  const auto sum_with_threads = [&](std::size_t threads) {
    return par::parallel_reduce<double>(
        values.size(), 0.0, par::Options{.threads = threads, .grain = 512},
        [&](std::uint64_t i) { return values[i]; },
        [](double a, double b) { return a + b; });
  };
  // Shard boundaries and combine order depend only on the grain, so the
  // floating-point result is bit-identical at every thread count — but it is
  // a different summation ORDER than the serial left fold, hence EXPECT_NEAR
  // against std::accumulate and EXPECT_DOUBLE_EQ across thread counts.
  EXPECT_NEAR(sum_with_threads(1), expected, 1e-9);
  EXPECT_DOUBLE_EQ(sum_with_threads(1), sum_with_threads(4));
  EXPECT_DOUBLE_EQ(sum_with_threads(1), sum_with_threads(8));
}

TEST(ParallelFor, NestedCallsRunInline) {
  // A pool task issuing its own parallel_for must not deadlock waiting on
  // the pool it is running on; inner calls execute inline on the worker.
  std::vector<std::atomic<int>> visits(64 * 64);
  par::parallel_for(64, par::Options{.threads = 4}, [&](std::uint64_t outer) {
    par::parallel_for(64, par::Options{.threads = 4}, [&](std::uint64_t inner) {
      visits[outer * 64 + inner].fetch_add(1);
    });
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(par::parallel_for(100, par::Options{.threads = 4, .grain = 1},
                                 [](std::uint64_t i) {
                                   if (i == 37) throw std::runtime_error("shard 37");
                                 }),
               std::runtime_error);
}

TEST(ParallelFor, RecordsMetrics) {
  obs::Registry registry;
  par::parallel_for(100, par::Options{.threads = 2, .grain = 10, .metrics = &registry},
                    [](std::uint64_t) {});
  const auto snapshot = registry.snapshot();
  const auto* tasks = snapshot.find_counter("par_tasks_total");
  const auto* shards = snapshot.find_counter("par_shards_total");
  ASSERT_NE(tasks, nullptr);
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(tasks->value, 1u);
  EXPECT_EQ(shards->value, 10u);
}

TEST(ThreadPool, InjectedPoolIsUsed) {
  par::ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  std::atomic<int> sum{0};
  par::parallel_for(100, par::Options{.pool = &pool},
                    [&](std::uint64_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, OverlappingCallersKeepEachOthersJobs) {
  // One worker, two callers. Job A holds the worker and caller A; job B is
  // posted while A runs, and caller B blocks inside B's first shard. When A
  // completes, caller A must remove only its own job: B keeps its queued
  // shards, and the freed worker adopts them while caller B still blocks.
  par::ThreadPool pool(2);
  std::latch a_started(2);
  std::latch a_release(1);
  std::latch b_started(1);
  std::latch b_release(1);
  std::thread caller_a([&] {
    pool.for_shards(2, [&](std::size_t) {
      a_started.count_down();
      a_release.wait();
    });
  });
  a_started.wait();

  std::vector<std::thread::id> b_runner(4);
  std::atomic<int> b_helped{0};
  std::thread caller_b([&] {
    pool.for_shards(4, [&](std::size_t shard) {
      b_runner[shard] = std::this_thread::get_id();
      if (shard == 0) {
        b_started.count_down();
        b_release.wait();
      } else {
        b_helped.fetch_add(1);
      }
    });
  });
  b_started.wait();
  EXPECT_EQ(pool.queued_shards(), 3u);  // A fully claimed; B's shards 1..3

  a_release.count_down();
  caller_a.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (b_helped.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool adopted = b_helped.load() == 3;
  const std::thread::id caller_b_id = caller_b.get_id();
  b_release.count_down();  // lets caller B finish either way
  caller_b.join();
  ASSERT_TRUE(adopted) << "the worker never adopted job B's queued shards";
  EXPECT_EQ(b_runner[0], caller_b_id);
  for (std::size_t shard = 1; shard < 4; ++shard) EXPECT_NE(b_runner[shard], caller_b_id);
  EXPECT_EQ(pool.queued_shards(), 0u);
}

// ---- seed derivation -------------------------------------------------------

TEST(DeriveSeed, ChildStreamsAreDistinctAndStable) {
  const std::uint64_t base = 0x5eed;
  EXPECT_EQ(util::rng::derive_seed(base, 3), util::rng::derive_seed(base, 3));
  EXPECT_NE(util::rng::derive_seed(base, 3), util::rng::derive_seed(base, 4));
  EXPECT_NE(util::rng::derive_seed(base, 0), util::rng::derive_seed(base + 1, 0));

  // First outputs of 1000 sibling streams should essentially never collide.
  std::vector<std::uint64_t> first;
  for (std::uint64_t shard = 0; shard < 1'000; ++shard) {
    first.push_back(util::rng::derive(base, shard)());
  }
  std::sort(first.begin(), first.end());
  EXPECT_EQ(std::adjacent_find(first.begin(), first.end()), first.end());
}

// ---- stream generation -----------------------------------------------------

TEST(Stream, BitIdenticalAcrossRunsAndThreadCounts) {
  const auto model = models::make_model(models::ModelKind::kAppClustering, small_params());

  const auto run = [&](std::size_t threads) {
    util::Rng rng(42);
    return models::generate_stream_log(*model, rng, models::StreamOptions{.threads = threads});
  };
  const auto serial = run(1);
  EXPECT_FALSE(serial.empty());
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const auto stream = run(threads);
    ASSERT_EQ(stream.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ASSERT_EQ(stream.user()[i], serial.user()[i]) << "threads=" << threads << " i=" << i;
      ASSERT_EQ(stream.app()[i], serial.app()[i]) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(Stream, MaxRequestsCapHolds) {
  const auto model = models::make_model(models::ModelKind::kZipf, small_params());
  util::Rng rng(7);
  const auto stream = models::generate_stream_log(
      *model, rng, models::StreamOptions{.max_requests = 500, .threads = 4});
  EXPECT_EQ(stream.size(), 500u);
}

// ---- shared-model concurrency (TSan target) --------------------------------

TEST(SharedModel, ConcurrentSessionsAndExpectedDownloads) {
  const auto params = small_params();
  const models::AppClusteringModel model(
      params, models::ClusterLayout::round_robin(params.app_count, params.cluster_count));

  par::parallel_for(32, par::Options{.threads = 8, .grain = 1}, [&](std::uint64_t task) {
    if (task % 4 == 0) {
      // Analytic path: touches every per-size sampler.
      const auto expected = model.expected_downloads();
      EXPECT_EQ(expected.size(), params.app_count);
    } else {
      // Sampling path: a private session drawing from the shared samplers.
      util::Rng rng = util::rng::derive(99, task);
      auto session = model.new_session();
      for (int draw = 0; draw < 200 && !session->exhausted(); ++draw) {
        EXPECT_LT(session->next(rng), params.app_count);
      }
    }
  });
}

// ---- fit sweep -------------------------------------------------------------

TEST(Fit, ParallelSweepSelectsSameCellAsSerial) {
  const auto params = small_params();
  const auto truth = models::make_model(models::ModelKind::kAppClustering, params);
  util::Rng rng(13);
  const auto measured = truth->generate(rng).by_rank();

  fit::SweepOptions options;
  options.zr_grid = {1.4, 1.6, 1.8};
  options.p_grid = {0.85, 0.9};
  options.zc_grid = {1.2, 1.4};
  options.seed = 21;

  options.threads = 1;
  const auto serial = fit::fit_model(models::ModelKind::kAppClustering, measured,
                                     params.user_count, params.cluster_count, options);
  options.threads = 4;
  const auto parallel = fit::fit_model(models::ModelKind::kAppClustering, measured,
                                       params.user_count, params.cluster_count, options);

  EXPECT_DOUBLE_EQ(serial.best.zr, parallel.best.zr);
  EXPECT_DOUBLE_EQ(serial.best.p, parallel.best.p);
  EXPECT_DOUBLE_EQ(serial.best.zc, parallel.best.zc);
  EXPECT_DOUBLE_EQ(serial.distance, parallel.distance);
  ASSERT_EQ(serial.all.size(), parallel.all.size());
  for (std::size_t i = 0; i < serial.all.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.all[i].distance, parallel.all[i].distance) << "cell " << i;
  }
  EXPECT_EQ(serial.simulated_by_rank, parallel.simulated_by_rank);
}

TEST(Fit, ParallelUsersSweepMatchesSerial) {
  const auto params = small_params();
  const auto truth = models::make_model(models::ModelKind::kZipfAtMostOnce, params);
  util::Rng rng(17);
  const auto measured = truth->generate(rng).by_rank();
  const std::vector<double> ratios = {0.5, 1.0, 2.0};

  const auto run = [&](std::size_t threads) {
    fit::UsersSweepOptions options;
    options.seed = 29;
    options.replicates = 2;
    options.threads = threads;
    return fit::sweep_users(models::ModelKind::kZipfAtMostOnce, measured, params, ratios,
                            options);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].users, parallel[i].users);
    EXPECT_DOUBLE_EQ(serial[i].distance, parallel[i].distance);
  }
}

// ---- bootstrap -------------------------------------------------------------

TEST(Bootstrap, IntervalIsThreadCountInvariant) {
  util::Rng rng(19);
  std::vector<double> sample(400);
  for (auto& v : sample) v = rng.lognormal(0.0, 1.0);

  const auto run = [&](std::size_t threads) {
    util::Rng run_rng(23);
    return stats::bootstrap_mean_ci(
        sample, run_rng, stats::BootstrapOptions{.resamples = 500, .threads = threads});
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_DOUBLE_EQ(serial.lower, parallel.lower);
  EXPECT_DOUBLE_EQ(serial.upper, parallel.upper);
  EXPECT_LT(serial.lower, serial.upper);
}

TEST(Bootstrap, ConsumesExactlyOneDraw) {
  std::vector<double> sample = {1.0, 2.0, 3.0, 4.0};
  util::Rng a(31);
  util::Rng b(31);
  (void)stats::bootstrap_mean_ci(sample, a, stats::BootstrapOptions{.resamples = 50});
  (void)b();
  EXPECT_EQ(a(), b());
}

// ---- cache sweeps ----------------------------------------------------------

TEST(Cache, ParallelSizeSweepMatchesSerial) {
  const auto model = models::make_model(models::ModelKind::kAppClustering, small_params());
  util::Rng rng(37);
  const auto stream = models::generate_stream_log(*model, rng);
  const std::vector<std::size_t> sizes = {4, 16, 64};

  const auto serial = cache::sweep_cache_sizes(cache::PolicyKind::kLru, sizes, stream, {},
                                               0, nullptr, /*threads=*/1);
  const auto parallel = cache::sweep_cache_sizes(cache::PolicyKind::kLru, sizes, stream, {},
                                                 0, nullptr, /*threads=*/4);
  ASSERT_EQ(serial.size(), sizes.size());
  ASSERT_EQ(parallel.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(serial[i].cache_size, parallel[i].cache_size);
    EXPECT_DOUBLE_EQ(serial[i].hit_ratio, parallel[i].hit_ratio);
  }
}

TEST(Core, PolicyStudyMatchesPerPolicyCacheStudy) {
  // The flattened policy×size study must reproduce the per-policy studies it
  // replaces in the ablation bench (same stream seed => same hit ratios).
  core::CacheStudyOptions options;
  options.scale = 0.003;
  options.seed = 41;
  options.threads = 4;
  const std::vector<cache::PolicyKind> policies = {cache::PolicyKind::kLru,
                                                   cache::PolicyKind::kFifo};
  const auto combined =
      core::cache_policy_study(models::ModelKind::kAppClustering, policies, options);
  ASSERT_EQ(combined.size(), policies.size());

  for (std::size_t p = 0; p < policies.size(); ++p) {
    EXPECT_EQ(combined[p].policy, policies[p]);
    core::CacheStudyOptions single = options;
    single.policy = policies[p];
    single.threads = 1;
    const auto expected = core::cache_study(models::ModelKind::kAppClustering, single);
    ASSERT_EQ(combined[p].points.size(), expected.points.size());
    for (std::size_t i = 0; i < expected.points.size(); ++i) {
      EXPECT_EQ(combined[p].points[i].cache_size, expected.points[i].cache_size);
      EXPECT_DOUBLE_EQ(combined[p].points[i].hit_ratio, expected.points[i].hit_ratio);
    }
  }
}

TEST(Core, Fig19StudyIsThreadCountInvariant) {
  core::CacheStudyOptions options;
  options.scale = 0.003;
  options.seed = 43;
  options.threads = 1;
  const auto serial = core::cache_study(models::ModelKind::kAppClustering, options);
  options.threads = 4;
  const auto parallel = core::cache_study(models::ModelKind::kAppClustering, options);
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.points[i].hit_ratio, parallel.points[i].hit_ratio);
  }
}

}  // namespace

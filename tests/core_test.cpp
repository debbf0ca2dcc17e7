// Tests for the EcosystemStudy facade.
#include <gtest/gtest.h>

#include "core/study.hpp"

namespace appstore::core {
namespace {

class StudyFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    synth::GeneratorConfig config;
    config.app_scale = 0.03;
    config.download_scale = 2e-5;
    config.comments = true;
    synth::StoreProfile profile = synth::anzhi();
    profile.commenter_fraction = 0.15;  // enough commenting users at test scale
    study_ = new EcosystemStudy(profile, config);
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }
  static EcosystemStudy* study_;
};

EcosystemStudy* StudyFixture::study_ = nullptr;

TEST_F(StudyFixture, ParetoShareAndCurve) {
  const double top10 = study_->pareto_share(0.10);
  EXPECT_GT(top10, 0.4);
  EXPECT_LE(top10, 1.0);
  const auto curve = study_->pareto_curve();
  ASSERT_EQ(curve.size(), 100u);
  EXPECT_NEAR(curve.back().download_percent, 100.0, 1e-9);
  EXPECT_NEAR(curve[9].download_percent, top10 * 100.0, 0.5);
}

TEST_F(StudyFixture, PopularityFitHasTrunk) {
  const auto report = study_->popularity_fit();
  EXPECT_GT(report.trunk.exponent, 0.8);
  EXPECT_LT(report.trunk.exponent, 2.0);
  EXPECT_GT(report.trunk.r_squared, 0.85);
}

TEST_F(StudyFixture, UpdatesPerAppTopDecileUpdatesMore) {
  const auto all = study_->updates_per_app(false);
  const auto top = study_->updates_per_app(true);
  ASSERT_FALSE(all.empty());
  ASSERT_FALSE(top.empty());
  const auto zero_fraction = [](const std::vector<double>& values) {
    std::size_t zeros = 0;
    for (const double v : values) {
      if (v == 0.0) ++zeros;
    }
    return static_cast<double>(zeros) / static_cast<double>(values.size());
  };
  EXPECT_GT(zero_fraction(all), zero_fraction(top));
}

TEST_F(StudyFixture, CategoryStringsNonEmpty) {
  const auto strings = study_->category_strings();
  EXPECT_GT(strings.size(), 10u);
}

TEST_F(StudyFixture, RandomWalkAffinityIncreasesWithDepth) {
  const double d1 = study_->random_walk_affinity(1);
  const double d2 = study_->random_walk_affinity(2);
  EXPECT_GT(d1, 0.0);
  EXPECT_LT(d1, d2);
}

TEST_F(StudyFixture, DatasetSummaryPlausible) {
  const auto summary = study_->dataset_summary();
  EXPECT_EQ(summary.store, "Anzhi");
  EXPECT_GT(summary.apps_last_day, summary.apps_first_day);
  EXPECT_GT(summary.daily_downloads, 0.0);
}

TEST_F(StudyFixture, FitPrefersClusteringOnOwnData) {
  // Monte Carlo evaluation: the Eq.-5 analytic form idealizes cluster visits
  // and is unusable for ranking APP-CLUSTERING candidates (it over-predicts
  // head mass by design), so the fit runs simulations as in the paper.
  fit::SweepOptions options;
  options.zr_grid = {1.2, 1.4, 1.6};
  options.p_grid = {0.9};
  options.zc_grid = {1.4};
  options.analytic = false;
  const auto zipf = study_->fit(models::ModelKind::kZipf, 60, options);
  const auto clustering = study_->fit(models::ModelKind::kAppClustering, 60, options);
  EXPECT_LT(clustering.distance, zipf.distance);
}

TEST(CacheStudy, ClusteringHurtsLru) {
  // 1200 apps, 12k users, 40k downloads
  const CacheStudyOptions options{.scale = 0.02, .policy = cache::PolicyKind::kLru, .seed = 7};
  const auto zipf = cache_study(models::ModelKind::kZipf, options);
  const auto clustering = cache_study(models::ModelKind::kAppClustering, options);
  ASSERT_EQ(zipf.points.size(), 20u);
  ASSERT_EQ(clustering.points.size(), 20u);
  // Fig. 19: clustering workloads produce a markedly lower LRU hit ratio.
  EXPECT_LT(clustering.points.front().hit_ratio, zipf.points.front().hit_ratio);
  // Hit ratio grows with cache size for the clustering workload.
  EXPECT_GT(clustering.points.back().hit_ratio, clustering.points.front().hit_ratio);
}

}  // namespace
}  // namespace appstore::core

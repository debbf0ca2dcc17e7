// Unit tests for appstore::stats — descriptive stats, ECDF, histograms,
// alias sampling, Zipf, power-law fitting, correlation, distances, Pareto.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "stats/alias.hpp"
#include "stats/bootstrap.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/distance.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "stats/pareto.hpp"
#include "stats/powerlaw.hpp"
#include "stats/zipf.hpp"
#include "util/rng.hpp"

namespace appstore::stats {
namespace {

// ---- descriptive ------------------------------------------------------------

TEST(Descriptive, BasicMoments) {
  const std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(values), 3.0);
  EXPECT_DOUBLE_EQ(variance(values), 2.5);
  EXPECT_DOUBLE_EQ(stddev(values), std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(median(values), 3.0);
  EXPECT_DOUBLE_EQ(min_value(values), 1.0);
  EXPECT_DOUBLE_EQ(max_value(values), 5.0);
}

TEST(Descriptive, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(variance({}), 0.0);
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(mean(one), 7.0);
  EXPECT_DOUBLE_EQ(variance(one), 0.0);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.5), 25.0);
  EXPECT_NEAR(quantile(values, 0.25), 17.5, 1e-12);
}

TEST(Descriptive, GiniKnownValues) {
  EXPECT_DOUBLE_EQ(gini(std::vector<double>{1, 1, 1, 1}), 0.0);
  // One item owns everything among n: gini = (n-1)/n.
  const std::vector<double> skewed = {0, 0, 0, 10};
  EXPECT_NEAR(gini(skewed), 0.75, 1e-12);
}

TEST(Descriptive, KahanSumIsAccurate) {
  // 1 + 1e-16 * 1e6 would lose the small terms in naive order.
  std::vector<double> values(1000001, 1e-10);
  values[0] = 1.0;
  EXPECT_NEAR(sum(values), 1.0 + 1e-4, 1e-12);
}

TEST(RunningStats, MatchesBatch) {
  const std::vector<double> values = {2.5, -1, 4, 4, 0, 10};
  RunningStats running;
  for (const double v : values) running.add(v);
  EXPECT_EQ(running.count(), values.size());
  EXPECT_NEAR(running.mean(), mean(values), 1e-12);
  EXPECT_NEAR(running.variance(), variance(values), 1e-12);
  EXPECT_DOUBLE_EQ(running.min(), -1);
  EXPECT_DOUBLE_EQ(running.max(), 10);
}

TEST(RunningStats, MergeEqualsCombined) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {10, 20, 30, 40};
  RunningStats ra;
  RunningStats rb;
  for (const double v : a) ra.add(v);
  for (const double v : b) rb.add(v);
  ra.merge(rb);

  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_NEAR(ra.mean(), mean(all), 1e-12);
  EXPECT_NEAR(ra.variance(), variance(all), 1e-12);
  EXPECT_EQ(ra.count(), all.size());
}

// ---- ecdf ----------------------------------------------------------------------

TEST(Ecdf, StepValues) {
  const Ecdf ecdf(std::vector<double>{1, 2, 2, 4});
  EXPECT_DOUBLE_EQ(ecdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(ecdf.at(2.0), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.at(3.9), 0.75);
  EXPECT_DOUBLE_EQ(ecdf.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(ecdf.at(100.0), 1.0);
}

TEST(Ecdf, InverseQuantile) {
  const Ecdf ecdf(std::vector<double>{10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.25), 10.0);
  EXPECT_DOUBLE_EQ(ecdf.inverse(0.5), 20.0);
  EXPECT_DOUBLE_EQ(ecdf.inverse(1.0), 40.0);
}

TEST(Ecdf, StepsDeduplicate) {
  const Ecdf ecdf(std::vector<double>{1, 1, 1, 2});
  const auto steps = ecdf.steps();
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_DOUBLE_EQ(steps[0].x, 1.0);
  EXPECT_DOUBLE_EQ(steps[0].f, 0.75);
  EXPECT_DOUBLE_EQ(steps[1].f, 1.0);
}

TEST(Ecdf, KsStatistic) {
  const Ecdf a(std::vector<double>{1, 2, 3, 4});
  const Ecdf b(std::vector<double>{1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(ks_statistic(a, b), 0.0);
  const Ecdf c(std::vector<double>{10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(ks_statistic(a, c), 1.0);
}

// ---- histogram -------------------------------------------------------------------

TEST(Histogram, LinearBinning) {
  LinearHistogram histogram(0.0, 10.0, 2.0);
  histogram.add(1.0);
  histogram.add(3.0);
  histogram.add(3.5);
  histogram.add(9.9);
  histogram.add(-5.0);   // clamps into first bin
  histogram.add(100.0);  // clamps into last bin
  const auto bins = histogram.bins();
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_EQ(bins[0].count, 2u);
  EXPECT_EQ(bins[1].count, 2u);
  EXPECT_EQ(bins[4].count, 2u);
  EXPECT_EQ(histogram.total_count(), 6u);
}

TEST(Histogram, LinearWeightsAccumulate) {
  LinearHistogram histogram(0.0, 4.0, 1.0);
  histogram.add(0.5, 10.0);
  histogram.add(0.7, 20.0);
  EXPECT_DOUBLE_EQ(histogram.bins()[0].sum, 30.0);
  EXPECT_DOUBLE_EQ(histogram.bins()[0].mean(), 15.0);
}

TEST(Histogram, LogBinningEdges) {
  LogHistogram histogram(1.0, 1000.0, 3);
  histogram.add(5.0);
  histogram.add(50.0);
  histogram.add(500.0);
  const auto bins = histogram.bins();
  ASSERT_EQ(bins.size(), 3u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_EQ(bins[1].count, 1u);
  EXPECT_EQ(bins[2].count, 1u);
  EXPECT_NEAR(bins[0].upper, 10.0, 1e-9);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(LinearHistogram(1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LinearHistogram(0.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(0.0, 10.0, 3), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), std::invalid_argument);
}

// ---- alias -----------------------------------------------------------------------

TEST(Alias, RejectsBadInput) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
}

TEST(Alias, NormalizedProbabilities) {
  const AliasTable table(std::vector<double>{1.0, 3.0});
  EXPECT_NEAR(table.probability_of(0), 0.25, 1e-12);
  EXPECT_NEAR(table.probability_of(1), 0.75, 1e-12);
}

TEST(Alias, EmpiricalFrequenciesMatchWeights) {
  const std::vector<double> weights = {5.0, 1.0, 3.0, 1.0};
  const AliasTable table(weights);
  util::Rng rng(1234);
  constexpr int kSamples = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < kSamples; ++i) ++counts[table.sample(rng)];
  const double total = 10.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = kSamples * weights[i] / total;
    EXPECT_NEAR(counts[i], expected, expected * 0.05) << "index " << i;
  }
}

TEST(Alias, SingleElement) {
  const AliasTable table(std::vector<double>{42.0});
  util::Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

// ---- zipf ------------------------------------------------------------------------

TEST(Zipf, HarmonicKnownValues) {
  EXPECT_NEAR(generalized_harmonic(1, 1.0), 1.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(3, 1.0), 1.0 + 0.5 + 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(generalized_harmonic(4, 0.0), 4.0, 1e-12);
}

TEST(Zipf, PmfSumsToOne) {
  for (const double s : {0.0, 0.9, 1.4, 2.0}) {
    const FiniteZipf zipf(500, s);
    double total = 0.0;
    for (std::uint64_t k = 1; k <= 500; ++k) total += zipf.pmf(k);
    EXPECT_NEAR(total, 1.0, 1e-9) << "s=" << s;
  }
}

TEST(Zipf, PmfMonotoneDecreasing) {
  const FiniteZipf zipf(100, 1.4);
  for (std::uint64_t k = 1; k < 100; ++k) {
    EXPECT_GT(zipf.pmf(k), zipf.pmf(k + 1));
  }
}

TEST(Zipf, PmfOutOfRangeIsZero) {
  const FiniteZipf zipf(10, 1.0);
  EXPECT_DOUBLE_EQ(zipf.pmf(0), 0.0);
  EXPECT_DOUBLE_EQ(zipf.pmf(11), 0.0);
}

TEST(Zipf, CdfEndpoints) {
  const FiniteZipf zipf(50, 1.2);
  EXPECT_DOUBLE_EQ(zipf.cdf(0), 0.0);
  EXPECT_NEAR(zipf.cdf(50), 1.0, 1e-12);
  EXPECT_GT(zipf.cdf(25), zipf.cdf(10));
}

TEST(Zipf, ZeroExponentIsUniform) {
  const FiniteZipf zipf(10, 0.0);
  for (std::uint64_t k = 1; k <= 10; ++k) EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-12);
}

TEST(Zipf, ExpectedCountsScale) {
  const FiniteZipf zipf(10, 1.0);
  const auto counts = zipf.expected_counts(1000.0);
  double total = 0.0;
  for (const double c : counts) total += c;
  EXPECT_NEAR(total, 1000.0, 1e-6);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(Zipf, SamplerMatchesPmf) {
  const std::uint64_t n = 100;
  const double s = 1.4;
  const ZipfSampler sampler(n, s);
  const FiniteZipf zipf(n, s);
  util::Rng rng(99);
  constexpr int kSamples = 300000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.sample(rng) - 1];
  // Check head ranks where expected counts are large.
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const double expected = kSamples * zipf.pmf(k);
    EXPECT_NEAR(counts[k - 1], expected, expected * 0.05) << "rank " << k;
  }
}

TEST(Zipf, InvalidArguments) {
  EXPECT_THROW(FiniteZipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(FiniteZipf(10, -1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
}

// ---- power-law fit ------------------------------------------------------------------

TEST(PowerLaw, FitLineExact) {
  const std::vector<double> x = {0, 1, 2, 3};
  const std::vector<double> y = {1, 3, 5, 7};
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(PowerLaw, RecoversExponentFromPureZipf) {
  // downloads(rank) = 1e6 * rank^-1.4, exact power law.
  std::vector<double> downloads(2000);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    downloads[i] = 1e6 * std::pow(static_cast<double>(i + 1), -1.4);
  }
  const PowerLawFit fit = fit_power_law(downloads, 1, downloads.size());
  EXPECT_NEAR(fit.exponent, 1.4, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(PowerLaw, TrunkFitIgnoresTruncatedEnds) {
  // Zipf trunk with a flattened head (fetch-at-most-once) and collapsed tail.
  std::vector<double> downloads(5000);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    const double rank = static_cast<double>(i + 1);
    double value = 1e7 * std::pow(rank, -1.5);
    value = std::min(value, 2e5);                      // head plateau
    if (i > 4000) value *= std::exp(-(rank - 4000) / 200.0);  // tail collapse
    downloads[i] = value;
  }
  const PowerLawFit fit = fit_power_law_trunk(downloads);
  EXPECT_NEAR(fit.exponent, 1.5, 0.1);
  EXPECT_GT(fit.r_squared, 0.99);
}

TEST(PowerLaw, TruncationReportDetectsBothEnds) {
  std::vector<double> downloads(5000);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    const double rank = static_cast<double>(i + 1);
    double value = 1e7 * std::pow(rank, -1.5);
    value = std::min(value, 2e5);
    if (i > 4000) value *= std::exp(-(rank - 4000) / 200.0);
    downloads[i] = value;
  }
  const TruncationReport report = analyze_truncation(downloads);
  EXPECT_LT(report.head_ratio, 0.5);  // measured head far below the trunk fit
  EXPECT_LT(report.tail_ratio, 0.5);  // measured tail far below the trunk fit
}

TEST(PowerLaw, PredictInvertsFit) {
  std::vector<double> downloads(100);
  for (std::size_t i = 0; i < downloads.size(); ++i) {
    downloads[i] = 5e4 * std::pow(static_cast<double>(i + 1), -1.0);
  }
  const PowerLawFit fit = fit_power_law(downloads, 1, 100);
  EXPECT_NEAR(fit.predict(1.0), 5e4, 5e2);
  EXPECT_NEAR(fit.predict(10.0), 5e3, 5e1);
}

TEST(PowerLaw, SkipsZeroEntries) {
  std::vector<double> downloads = {100, 50, 0, 25, 0};
  const PowerLawFit fit = fit_power_law(downloads, 1, 5);
  EXPECT_GT(fit.exponent, 0.0);  // fit succeeded on the nonzero points
}

TEST(PowerLaw, Errors) {
  EXPECT_THROW((void)fit_power_law({}, 1, 1), std::invalid_argument);
  const std::vector<double> one = {1.0};
  EXPECT_THROW((void)fit_power_law(one, 2, 1), std::invalid_argument);
}

// ---- correlation ---------------------------------------------------------------------

TEST(Correlation, PerfectAndInverse) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Correlation, ConstantSideIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Correlation, SpearmanMonotonicNonlinear) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};  // monotone but nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Correlation, SpearmanHandlesTies) {
  const std::vector<double> x = {1, 2, 2, 3};
  const std::vector<double> y = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Correlation, SizeMismatchThrows) {
  const std::vector<double> x = {1, 2};
  const std::vector<double> y = {1};
  EXPECT_THROW((void)pearson(x, y), std::invalid_argument);
  EXPECT_THROW((void)spearman(x, y), std::invalid_argument);
}

// ---- distance -------------------------------------------------------------------------

TEST(Distance, MeanRelativeErrorKnown) {
  const std::vector<double> observed = {100, 50, 10};
  const std::vector<double> simulated = {110, 45, 10};
  // (10/100 + 5/50 + 0/10) / 3 = (0.1 + 0.1 + 0) / 3
  EXPECT_NEAR(mean_relative_error(observed, simulated), 0.2 / 3.0, 1e-12);
}

TEST(Distance, ZeroObservedSkipped) {
  const std::vector<double> observed = {100, 0};
  const std::vector<double> simulated = {100, 999};
  EXPECT_DOUBLE_EQ(mean_relative_error(observed, simulated), 0.0);
}

TEST(Distance, IdenticalIsZero) {
  const std::vector<double> values = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(mean_relative_error(values, values), 0.0);
  EXPECT_DOUBLE_EQ(smape(values, values), 0.0);
  EXPECT_DOUBLE_EQ(log_rmse(values, values), 0.0);
}

TEST(Distance, SmapeBounded) {
  const std::vector<double> observed = {1, 1, 1};
  const std::vector<double> simulated = {1000, 1000, 1000};
  EXPECT_LE(smape(observed, simulated), 2.0);
}

TEST(Distance, LogRmseOrderOfMagnitude) {
  const std::vector<double> observed = {100};
  const std::vector<double> simulated = {1000};
  EXPECT_NEAR(log_rmse(observed, simulated), 1.0, 1e-12);
}

// ---- pareto ----------------------------------------------------------------------------

TEST(Pareto, TopShareKnown) {
  // Top 1 of 10 items owns 91/100.
  std::vector<double> counts = {91, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_NEAR(top_share(counts, 0.10), 0.91, 1e-12);
  EXPECT_NEAR(top_share(counts, 1.0), 1.0, 1e-12);
}

TEST(Pareto, TopSharesMatchPerFractionSorts) {
  // Reference: one descending sort and prefix walk per fraction.
  const auto reference = [](std::vector<double> counts, double fraction) {
    std::sort(counts.begin(), counts.end(), std::greater<>());
    double total = 0.0;
    for (const double c : counts) total += c;
    if (counts.empty() || total <= 0.0 || fraction <= 0.0) return 0.0;
    auto k = static_cast<std::size_t>(std::ceil(fraction * static_cast<double>(counts.size())));
    k = std::clamp<std::size_t>(k, 1, counts.size());
    double top = 0.0;
    for (std::size_t i = 0; i < k; ++i) top += counts[i];
    return top / total;
  };
  util::Rng rng(17);
  const std::vector<double> fractions = {0.01, 0.05, 0.10, 0.20, 0.50, 1.0, 1.5, 0.0, -0.2, 1e-9};
  for (const std::size_t n : {0u, 1u, 7u, 100u, 613u}) {
    std::vector<double> counts(n);
    for (double& c : counts) {
      c = static_cast<double>(rng.below(1000)) / (1.0 + static_cast<double>(rng.below(9)));
    }
    const std::vector<double> shares = top_shares(counts, fractions);
    ASSERT_EQ(shares.size(), fractions.size());
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      EXPECT_EQ(shares[i], reference(counts, fractions[i])) << "n=" << n << " f=" << fractions[i];
      EXPECT_EQ(top_share(counts, fractions[i]), shares[i]);
    }
  }
}

TEST(Pareto, ShareCurveMonotone) {
  std::vector<double> counts(100);
  for (std::size_t i = 0; i < 100; ++i) {
    counts[i] = 1000.0 / static_cast<double>(i + 1);
  }
  std::vector<double> percents = {1, 10, 50, 100};
  const auto curve = share_curve(counts, percents);
  ASSERT_EQ(curve.size(), 4u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].download_percent, curve[i - 1].download_percent);
  }
  EXPECT_NEAR(curve.back().download_percent, 100.0, 1e-9);
}

TEST(Pareto, LorenzEndpoints) {
  const std::vector<double> counts = {1, 2, 3, 4};
  const auto curve = lorenz_curve(counts, 4);
  EXPECT_DOUBLE_EQ(curve.front().cumulative_share, 0.0);
  EXPECT_NEAR(curve.back().cumulative_share, 1.0, 1e-12);
  // Lorenz curve lies below the diagonal for unequal data.
  for (const auto& point : curve) {
    EXPECT_LE(point.cumulative_share, point.population_fraction + 1e-12);
  }
}

TEST(Pareto, EmptyInput) {
  EXPECT_DOUBLE_EQ(top_share({}, 0.1), 0.0);
  const std::vector<double> percents = {10};
  const auto curve = share_curve({}, percents);
  EXPECT_DOUBLE_EQ(curve[0].download_percent, 0.0);
}

// ---- bootstrap -------------------------------------------------------------------------

TEST(Bootstrap, NormalCiCoversMean) {
  const std::vector<double> sample = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Interval ci = normal_ci(sample);
  EXPECT_TRUE(ci.contains(mean(sample)));
  EXPECT_GT(ci.width(), 0.0);
}

TEST(Bootstrap, BootstrapCiCoversMean) {
  std::vector<double> sample;
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) sample.push_back(rng.normal(10.0, 2.0));
  util::Rng boot_rng(4);
  const Interval ci = bootstrap_mean_ci(sample, boot_rng, {.resamples = 500});
  EXPECT_TRUE(ci.contains(mean(sample)));
  // 95% CI of N(10, 2) with n=200 is roughly ±0.28 wide.
  EXPECT_LT(ci.width(), 1.5);
}

TEST(Bootstrap, EmptySample) {
  util::Rng rng(1);
  const Interval ci = bootstrap_mean_ci({}, rng);
  EXPECT_DOUBLE_EQ(ci.lower, 0.0);
  EXPECT_DOUBLE_EQ(ci.upper, 0.0);
}

// ---- property sweep: sampler vs pmf across exponents --------------------------------

class ZipfSamplerProperty : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSamplerProperty, HeadFrequencyMatchesPmf) {
  const double s = GetParam();
  const std::uint64_t n = 200;
  const ZipfSampler sampler(n, s);
  const FiniteZipf zipf(n, s);
  util::Rng rng(static_cast<std::uint64_t>(s * 1000) + 17);
  constexpr int kSamples = 100000;
  std::uint64_t rank1 = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (sampler.sample(rng) == 1) ++rank1;
  }
  const double expected = kSamples * zipf.pmf(1);
  EXPECT_NEAR(static_cast<double>(rank1), expected, std::max(50.0, expected * 0.06));
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfSamplerProperty,
                         ::testing::Values(0.0, 0.5, 0.9, 1.0, 1.2, 1.4, 1.7, 2.0));

}  // namespace
}  // namespace appstore::stats

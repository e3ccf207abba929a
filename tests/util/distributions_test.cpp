#include "util/distributions.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace cloudfog::util {
namespace {

TEST(BoundedPareto, SamplesWithinBounds) {
  Rng rng(3);
  const BoundedParetoDistribution d(4.0, 40.0, 2.0);
  for (int i = 0; i < 10000; ++i) {
    const double v = d.sample(rng);
    ASSERT_GE(v, 4.0);
    ASSERT_LE(v, 40.0);
  }
}

TEST(BoundedPareto, SkewsTowardLowerBound) {
  Rng rng(4);
  const BoundedParetoDistribution d(4.0, 40.0, 2.0);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) < 8.0) ++low;
  }
  // For the truncated Pareto most of the mass sits near the lower bound.
  EXPECT_GT(low, n / 2);
}

TEST(BoundedPareto, RejectsBadBounds) {
  EXPECT_THROW(BoundedParetoDistribution(0.0, 10.0, 1.0), ConfigError);
  EXPECT_THROW(BoundedParetoDistribution(5.0, 5.0, 1.0), ConfigError);
}

TEST(Zipf, PmfSumsToOne) {
  const ZipfDistribution d(100, 1.0);
  double acc = 0.0;
  for (std::size_t k = 1; k <= 100; ++k) acc += d.pmf(k);
  EXPECT_NEAR(acc, 1.0, 1e-12);
}

TEST(Zipf, RankOneIsMostLikely) {
  const ZipfDistribution d(10, 1.0);
  for (std::size_t k = 2; k <= 10; ++k) {
    EXPECT_GT(d.pmf(1), d.pmf(k));
  }
}

TEST(Zipf, SampleFrequenciesMatchPmf) {
  Rng rng(5);
  const ZipfDistribution d(5, 1.0);
  std::vector<int> counts(6, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[d.sample(rng)];
  for (std::size_t k = 1; k <= 5; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, d.pmf(k), 0.01);
  }
}

TEST(Zipf, HarmonicWeightsMatchPaperEq16) {
  // P_j = (1/j) / sum(1/n) for s = 1 — exactly Eq. 16.
  const ZipfDistribution d(4, 1.0);
  const double h = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  EXPECT_NEAR(d.pmf(1), 1.0 / h, 1e-12);
  EXPECT_NEAR(d.pmf(3), (1.0 / 3.0) / h, 1e-12);
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(ZipfDistribution(0, 1.0), ConfigError); }

TEST(Poisson, ZeroMeanGivesZero) {
  Rng rng(6);
  EXPECT_EQ(sample_poisson(rng, 0.0), 0);
}

TEST(Poisson, SmallMeanMatches) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sample_poisson(rng, 3.5));
  EXPECT_NEAR(stats.mean(), 3.5, 0.1);
  EXPECT_NEAR(stats.variance(), 3.5, 0.2);
}

TEST(Poisson, LargeMeanUsesNormalApproximation) {
  Rng rng(8);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(sample_poisson(rng, 300.0));
  EXPECT_NEAR(stats.mean(), 300.0, 2.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(300.0), 1.0);
}

TEST(Poisson, RejectsNegativeMean) {
  Rng rng(9);
  EXPECT_THROW(sample_poisson(rng, -1.0), ConfigError);
}

TEST(Exponential, MeanIsInverseRate) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(sample_exponential(rng, 4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Exponential, AlwaysPositive) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(sample_exponential(rng, 1.0), 0.0);
  }
}

TEST(Exponential, RejectsNonPositiveRate) {
  Rng rng(12);
  EXPECT_THROW(sample_exponential(rng, 0.0), ConfigError);
}

TEST(StandardNormal, MomentsMatch) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(sample_standard_normal(rng));
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Lognormal, MedianIsExpMu) {
  Rng rng(14);
  SampleSet samples;
  for (int i = 0; i < 50000; ++i) samples.add(sample_lognormal(rng, 2.0, 0.5));
  EXPECT_NEAR(samples.median(), std::exp(2.0), 0.2);
}

TEST(LognormalMixture, SamplesFromAllComponents) {
  Rng rng(15);
  // Two well-separated components: medians ~e^0=1 and ~e^5≈148.
  const LognormalMixture mix({{0.5, 0.0, 0.1}, {0.5, 5.0, 0.1}});
  int low = 0;
  int high = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = mix.sample(rng);
    if (v < 10.0) ++low;
    if (v > 50.0) ++high;
  }
  EXPECT_NEAR(low, 5000, 300);
  EXPECT_NEAR(high, 5000, 300);
}

TEST(LognormalMixture, RejectsEmptyAndBadWeights) {
  EXPECT_THROW(LognormalMixture({}), ConfigError);
  EXPECT_THROW(LognormalMixture({{0.0, 1.0, 1.0}}), ConfigError);
}

TEST(Empirical, OnlyProducesListedValues) {
  Rng rng(16);
  const EmpiricalDistribution d({{1.5, 1.0}, {3.0, 2.0}, {6.0, 1.0}});
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    ASSERT_TRUE(v == 1.5 || v == 3.0 || v == 6.0);
  }
}

TEST(Empirical, FrequenciesFollowWeights) {
  Rng rng(17);
  const EmpiricalDistribution d({{1.0, 1.0}, {2.0, 3.0}});
  int twos = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (d.sample(rng) == 2.0) ++twos;
  }
  EXPECT_NEAR(static_cast<double>(twos) / n, 0.75, 0.01);
}

TEST(Empirical, MeanIsWeighted) {
  const EmpiricalDistribution d({{1.0, 1.0}, {3.0, 1.0}});
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(PowerLawDegrees, WithinBoundsAndSkewed) {
  Rng rng(18);
  const auto degrees = sample_power_law_degrees(rng, 10000, 1.5, 1, 100);
  int low = 0;
  for (int d : degrees) {
    ASSERT_GE(d, 1);
    ASSERT_LE(d, 100);
    if (d <= 3) ++low;
  }
  // Power law with skew 1.5: the bulk of nodes have few friends.
  EXPECT_GT(low, 6000);
}

TEST(PowerLawDegrees, DegenerateRange) {
  Rng rng(19);
  const auto degrees = sample_power_law_degrees(rng, 10, 1.5, 4, 4);
  for (int d : degrees) EXPECT_EQ(d, 4);
}

TEST(BoundedPareto, MeanMatchesTheory) {
  // E[X] = L^a / (1 - (L/H)^a) * a / (a - 1) * (L^(1-a) - H^(1-a)), a != 1.
  const double lo = 4.0;
  const double hi = 40.0;
  const double a = 2.0;
  const double expected = std::pow(lo, a) / (1.0 - std::pow(lo / hi, a)) * a / (a - 1.0) *
                          (std::pow(lo, 1.0 - a) - std::pow(hi, 1.0 - a));
  Rng rng(21);
  const BoundedParetoDistribution d(lo, hi, a);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(d.sample(rng));
  EXPECT_NEAR(stats.mean(), expected, expected * 0.01);
}

TEST(BoundedPareto, RejectsNonPositiveShape) {
  EXPECT_THROW(BoundedParetoDistribution(1.0, 10.0, 0.0), ConfigError);
  EXPECT_THROW(BoundedParetoDistribution(1.0, 10.0, -2.0), ConfigError);
}

}  // namespace
}  // namespace cloudfog::util

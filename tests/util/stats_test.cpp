#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"

namespace cloudfog::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleValueVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
  q.add(3.0);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);  // exact median of {1,3}
  q.add(2.0);
  EXPECT_DOUBLE_EQ(q.value(), 2.0);
}

TEST(P2Quantile, TracksUniformStream) {
  P2Quantile median(0.5);
  P2Quantile p95(0.95);
  for (int i = 0; i < 10000; ++i) {
    const double v = static_cast<double>((i * 7919) % 10000);  // shuffled 0..9999
    median.add(v);
    p95.add(v);
  }
  EXPECT_NEAR(median.value(), 5000.0, 150.0);
  EXPECT_NEAR(p95.value(), 9500.0, 150.0);
}

TEST(P2Quantile, RejectsBadProbability) { EXPECT_THROW(P2Quantile(1.5), ConfigError); }

TEST(RunningStats, PercentilesMatchExactOnLargeStream) {
  RunningStats s;
  SampleSet exact;
  for (int i = 0; i < 20000; ++i) {
    const double v = static_cast<double>((i * 104729) % 20000) / 20.0;
    s.add(v);
    exact.add(v);
  }
  // P² is an estimator: allow a small relative band around the exact value.
  EXPECT_NEAR(s.p50(), exact.p50(), exact.p50() * 0.02 + 1.0);
  EXPECT_NEAR(s.p95(), exact.p95(), exact.p95() * 0.02 + 1.0);
  EXPECT_NEAR(s.p99(), exact.p99(), exact.p99() * 0.02 + 1.0);
}

TEST(RunningStats, PercentilesExactForTinyStreams) {
  RunningStats s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.p50(), 15.0);
  EXPECT_DOUBLE_EQ(s.p99(), 10.0 + 0.99 * 10.0);
}

TEST(SampleSet, NamedPercentileAccessors) {
  SampleSet s;
  for (int i = 0; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.p50(), 50.0);
  EXPECT_DOUBLE_EQ(s.p95(), 95.0);
  EXPECT_DOUBLE_EQ(s.p99(), 99.0);
}

TEST(SampleSet, MeanAndMedian) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  for (double v : {10.0, 20.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 15.0);
}

TEST(SampleSet, PercentileAfterLaterAdds) {
  SampleSet s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 1.0);
  s.add(9.0);  // must invalidate the cached sort
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 9.0);
}

TEST(SampleSet, PercentileErrors) {
  SampleSet s;
  EXPECT_THROW(s.percentile(0.5), ConfigError);
  s.add(1.0);
  EXPECT_THROW(s.percentile(1.5), ConfigError);
}

TEST(SampleSet, EmptyMeanIsZero) {
  const SampleSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, MinMaxTrackNegativeValues) {
  RunningStats s;
  for (double v : {-3.0, 7.5, -11.25, 0.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), -11.25);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), -6.75 / 4.0);
}

TEST(RunningStats, PercentilesStayOrderedOnASkewedStream) {
  RunningStats s;
  // Heavy right tail: most values small, a few very large.
  for (int i = 1; i <= 5000; ++i) {
    const double v = (i % 97 == 0) ? 1000.0 + i : static_cast<double>(i % 13);
    s.add(v);
  }
  EXPECT_LE(s.min(), s.p50());
  EXPECT_LE(s.p50(), s.p95());
  EXPECT_LE(s.p95(), s.p99());
  EXPECT_LE(s.p99(), s.max());
}

TEST(P2Quantile, ConstantStreamIsExact) {
  P2Quantile q(0.9);
  for (int i = 0; i < 1000; ++i) q.add(42.0);
  EXPECT_EQ(q.count(), 1000u);
  EXPECT_DOUBLE_EQ(q.value(), 42.0);
}

TEST(P2Quantile, TracksAnExponentialTail) {
  // P(X > x) = exp(-x): the exact 0.95-quantile is ln 20.
  P2Quantile p95(0.95);
  for (int i = 0; i < 20000; ++i) {
    const double u = (static_cast<double>((i * 7919) % 20000) + 0.5) / 20000.0;
    p95.add(-std::log(1.0 - u));
  }
  EXPECT_NEAR(p95.value(), std::log(20.0), 0.05);
}

}  // namespace
}  // namespace cloudfog::util

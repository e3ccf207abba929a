#include "video/continuity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"

namespace cloudfog::video {
namespace {

TEST(OnTimeProbability, ZeroWhenLatencyExceedsRequirement) {
  EXPECT_DOUBLE_EQ(on_time_probability(120.0, 100.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(on_time_probability(100.0, 100.0, 10.0), 0.0);
}

TEST(OnTimeProbability, ExponentialForm) {
  // Slack 30 ms, jitter mean 10 ms: P = 1 − e^−3.
  EXPECT_NEAR(on_time_probability(70.0, 100.0, 10.0), 1.0 - std::exp(-3.0), 1e-12);
}

TEST(OnTimeProbability, MonotoneInSlack) {
  double prev = 0.0;
  for (double lat : {90.0, 70.0, 50.0, 30.0, 10.0}) {
    const double p = on_time_probability(lat, 100.0, 15.0);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(OnTimeProbability, MonotoneInJitter) {
  EXPECT_GT(on_time_probability(50.0, 100.0, 5.0), on_time_probability(50.0, 100.0, 50.0));
}

TEST(OnTimeProbability, Validation) {
  EXPECT_THROW(on_time_probability(-1.0, 100.0, 10.0), cloudfog::ConfigError);
  EXPECT_THROW(on_time_probability(50.0, 0.0, 10.0), cloudfog::ConfigError);
  EXPECT_THROW(on_time_probability(50.0, 100.0, 0.0), cloudfog::ConfigError);
}

TEST(DeliveryRatio, CapsAtOne) {
  EXPECT_DOUBLE_EQ(delivery_ratio(2000.0, 1000.0), 1.0);
  EXPECT_DOUBLE_EQ(delivery_ratio(500.0, 1000.0), 0.5);
  EXPECT_DOUBLE_EQ(delivery_ratio(0.0, 1000.0), 0.0);
}

TEST(PacketContinuity, CombinesBothFactors) {
  const double p = packet_continuity(70.0, 100.0, 10.0, 600.0, 1200.0);
  EXPECT_NEAR(p, (1.0 - std::exp(-3.0)) * 0.5, 1e-12);
}

TEST(ContinuityMeter, EmptyIsPerfect) {
  const ContinuityMeter meter;
  EXPECT_DOUBLE_EQ(meter.continuity(), 1.0);
  EXPECT_TRUE(meter.satisfied());
}

TEST(ContinuityMeter, PacketWeightedAverage) {
  ContinuityMeter meter;
  meter.add(1.0, 30.0);
  meter.add(0.0, 10.0);
  EXPECT_DOUBLE_EQ(meter.continuity(), 0.75);
}

TEST(ContinuityMeter, SatisfactionAtThreshold) {
  ContinuityMeter meter;
  meter.add(0.95, 100.0);
  EXPECT_TRUE(meter.satisfied());
  meter.add(0.5, 10.0);
  EXPECT_FALSE(meter.satisfied());
}

TEST(ContinuityMeter, RejectsInvalidInput) {
  ContinuityMeter meter;
  EXPECT_THROW(meter.add(1.5), cloudfog::ConfigError);
  EXPECT_THROW(meter.add(0.5, -1.0), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::video

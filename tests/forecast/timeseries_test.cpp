#include "forecast/timeseries.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.hpp"

namespace cloudfog::forecast {
namespace {

TEST(TimeSeries, PushAndAccess) {
  TimeSeries ts;
  ts.push(1.0);
  ts.push(2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.at(0), 1.0);
  EXPECT_DOUBLE_EQ(ts.back(), 2.0);
  EXPECT_DOUBLE_EQ(ts.back(1), 1.0);
}

TEST(TimeSeries, HasLag) {
  TimeSeries ts({1.0, 2.0, 3.0});
  EXPECT_TRUE(ts.has_lag(2));
  EXPECT_FALSE(ts.has_lag(3));
}

TEST(TimeSeries, BoundsChecked) {
  const TimeSeries ts({1.0});
  EXPECT_THROW(ts.at(1), cloudfog::ConfigError);
  EXPECT_THROW(ts.back(1), cloudfog::ConfigError);
}

TEST(Accuracy, RmseKnownValue) {
  EXPECT_DOUBLE_EQ(rmse({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(rmse({0.0, 0.0}, {3.0, 4.0}), std::sqrt(12.5));
}

TEST(Accuracy, MapeKnownValue) {
  EXPECT_NEAR(mape({100.0, 200.0}, {110.0, 180.0}), 0.1, 1e-12);
}

TEST(Accuracy, MapeSkipsZeroActuals) {
  EXPECT_NEAR(mape({0.0, 100.0}, {5.0, 90.0}), 0.1, 1e-12);
}

TEST(Accuracy, Validation) {
  EXPECT_THROW(rmse({1.0}, {1.0, 2.0}), cloudfog::ConfigError);
  EXPECT_THROW(rmse({}, {}), cloudfog::ConfigError);
  EXPECT_THROW(mape({0.0}, {1.0}), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::forecast

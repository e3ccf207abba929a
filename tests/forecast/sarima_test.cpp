#include "forecast/sarima.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "game/workload.hpp"
#include "util/require.hpp"

namespace cloudfog::forecast {
namespace {

TEST(Sarima, NoHistoryNoForecast) {
  const SeasonalArima model(SarimaConfig{4, 0.0, 0.0});
  EXPECT_FALSE(model.forecast_next().has_value());
}

TEST(Sarima, PersistenceDuringWarmup) {
  SeasonalArima model(SarimaConfig{4, 0.3, 0.3});
  model.observe(10.0);
  EXPECT_FALSE(model.seasonal_model_active());
  EXPECT_DOUBLE_EQ(model.forecast_next().value(), 10.0);
  model.observe(20.0);
  EXPECT_DOUBLE_EQ(model.forecast_next().value(), 20.0);
}

TEST(Sarima, SeasonalModelActivatesAfterFullSeasonPlusOne) {
  SeasonalArima model(SarimaConfig{4, 0.0, 0.0});
  for (int i = 0; i < 4; ++i) model.observe(static_cast<double>(i));
  EXPECT_FALSE(model.seasonal_model_active());
  model.observe(4.0);
  EXPECT_TRUE(model.seasonal_model_active());
}

TEST(Sarima, PerfectlyPeriodicSeriesForecastExactlyWithZeroMa) {
  // With θ = Θ = 0, Eq. 14 reduces to N̂_t = N_{t−T} + N_{t−1} − N_{t−T−1},
  // which is exact for any series of the form seasonal + linear trend.
  const std::size_t T = 6;
  SeasonalArima model(SarimaConfig{T, 0.0, 0.0});
  auto value = [&](int t) {
    return 100.0 + 3.0 * t + 20.0 * std::sin(2.0 * std::numbers::pi * t / 6.0);
  };
  for (int t = 0; t < 30; ++t) {
    const auto forecast = model.forecast_next();
    if (model.seasonal_model_active()) {
      ASSERT_TRUE(forecast.has_value());
      EXPECT_NEAR(*forecast, value(t), 1e-9);
    }
    model.observe(value(t));
  }
}

TEST(Sarima, Eq14RecursionMatchesManualComputation) {
  const std::size_t T = 3;
  const double theta = 0.4;
  const double seasonal_theta = 0.2;
  SeasonalArima model(SarimaConfig{T, theta, seasonal_theta});
  const std::vector<double> data{10, 12, 9, 11, 13, 10, 12, 14};

  // Mirror the recursion by hand.
  std::vector<double> w;
  std::vector<double> n;
  for (double v : data) {
    std::optional<double> f;
    if (n.size() >= T + 1) {
      const std::size_t t = n.size();
      f = n[t - T] + n[t - 1] - n[t - T - 1] - theta * w[t - 1] -
          seasonal_theta * w[t - T] + theta * seasonal_theta * w[t - T - 1];
    } else if (!n.empty()) {
      f = n.back();
    }
    const auto model_f = model.forecast_next();
    if (f.has_value()) {
      ASSERT_TRUE(model_f.has_value());
      EXPECT_NEAR(*model_f, *f, 1e-12);
    }
    model.observe(v);
    n.push_back(v);
    w.push_back(f.has_value() ? v - *f : 0.0);
  }
}

TEST(Sarima, TracksTheDiurnalWorkloadWell) {
  // The §3.5 use case: forecast the player population one 4-hour window
  // ahead. With weekly seasonality of 42 windows, SARIMA should land
  // within a few percent once the season is learnable.
  game::WorkloadConfig wl_cfg;
  game::WorkloadGenerator workload(wl_cfg, util::Rng(3));
  const auto series = workload.series(21);  // 3 weeks of hourly values

  // Aggregate into 4-hour windows.
  std::vector<double> windows;
  for (std::size_t i = 0; i + 4 <= series.size(); i += 4) {
    windows.push_back((series[i] + series[i + 1] + series[i + 2] + series[i + 3]) / 4.0);
  }

  SeasonalArima model(SarimaConfig{42, 0.3, 0.3});
  double err = 0.0;
  int counted = 0;
  for (double v : windows) {
    const auto f = model.forecast_next();
    if (f.has_value() && model.seasonal_model_active()) {
      err += std::abs(*f - v) / v;
      ++counted;
    }
    model.observe(v);
  }
  ASSERT_GT(counted, 40);
  EXPECT_LT(err / counted, 0.15);  // mean absolute percentage error
}

TEST(Sarima, ConfigValidation) {
  EXPECT_THROW(SeasonalArima(SarimaConfig{0, 0.3, 0.3}), cloudfog::ConfigError);
  EXPECT_THROW(SeasonalArima(SarimaConfig{4, 1.0, 0.3}), cloudfog::ConfigError);
  EXPECT_THROW(SeasonalArima(SarimaConfig{4, 0.3, -0.1}), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::forecast

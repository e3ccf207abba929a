// Seasonal ARIMA(0,1,1)×(0,1,1)_T one-step forecaster (paper §3.5, Eq. 14).
//
// With T windows per season (one week of m-hour windows), the one-step
// forecast is
//   N̂_t = N_{t−T} + N_{t−1} − N_{t−T−1}
//         − θ·W_{t−1} − Θ·W_{t−T} + θ·Θ·W_{t−T−1}
// where θ is the MA(1) coefficient, Θ the seasonal SMA(1) coefficient and
// W the innovation sequence, estimated recursively as W_t = N_t − N̂_t.
// Until a full season + 1 of history exists the forecaster falls back to
// persistence (last value), which is what a provider would do in week one.
#pragma once

#include <cstddef>
#include <optional>

#include "forecast/timeseries.hpp"

namespace cloudfog::forecast {

struct SarimaConfig {
  std::size_t season_length = 42;  ///< T = 24·7/m windows per week (m = 4 h)
  double theta = 0.3;              ///< MA(1) coefficient θ
  double seasonal_theta = 0.3;     ///< SMA(1) coefficient Θ
  /// Run the recursion on log-values (forecasts are exponentiated back).
  /// Player populations are multiplicative — a week-over-week growth rate
  /// on top of a high-amplitude diurnal shape — so the additive Eq. 14
  /// differences track the trend far better in log space. Requires
  /// strictly positive observations.
  bool log_transform = false;
};

class SeasonalArima {
 public:
  explicit SeasonalArima(SarimaConfig cfg);

  const SarimaConfig& config() const { return cfg_; }
  std::size_t observations() const { return history_.size(); }

  /// Feeds the realized value for the current window; updates residuals.
  void observe(double value);

  /// Forecast for the *next* window. Persistence until T+1 observations
  /// exist; nullopt only when no history at all.
  std::optional<double> forecast_next() const;

  /// True once the full Eq. 14 recursion (not persistence) is in use.
  bool seasonal_model_active() const { return history_.size() >= cfg_.season_length + 1; }

  /// Innovation (one-step error) history, same indexing as observations.
  const std::vector<double>& residuals() const { return residuals_; }

 private:
  double raw_forecast(std::size_t t) const;  // Eq. 14 for window t

  SarimaConfig cfg_;
  TimeSeries history_;
  std::vector<double> residuals_;  // W_t = N_t − N̂_t (0 while warming up)
};

}  // namespace cloudfog::forecast

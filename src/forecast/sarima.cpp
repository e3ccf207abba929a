#include "forecast/sarima.hpp"

#include <cmath>

#include "util/require.hpp"

namespace cloudfog::forecast {

SeasonalArima::SeasonalArima(SarimaConfig cfg) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.season_length >= 1, "season length must be at least 1");
  CLOUDFOG_REQUIRE(cfg.theta >= 0.0 && cfg.theta < 1.0, "θ must be in [0,1)");
  CLOUDFOG_REQUIRE(cfg.seasonal_theta >= 0.0 && cfg.seasonal_theta < 1.0,
                   "Θ must be in [0,1)");
}

double SeasonalArima::raw_forecast(std::size_t t) const {
  // Eq. 14 for the value at index t, given history through t-1.
  const std::size_t T = cfg_.season_length;
  const double n_t1 = history_.at(t - 1);
  const double n_tT = history_.at(t - T);
  const double n_tT1 = history_.at(t - T - 1);
  const double w_t1 = residuals_[t - 1];
  const double w_tT = residuals_[t - T];
  const double w_tT1 = residuals_[t - T - 1];
  return n_tT + n_t1 - n_tT1 - cfg_.theta * w_t1 - cfg_.seasonal_theta * w_tT +
         cfg_.theta * cfg_.seasonal_theta * w_tT1;
}

void SeasonalArima::observe(double value) {
  double stored = value;
  if (cfg_.log_transform) {
    CLOUDFOG_REQUIRE(value > 0.0, "log-transformed SARIMA needs positive observations");
    stored = std::log(value);
  }
  // Residuals live in the (possibly transformed) model space.
  std::optional<double> forecast;
  if (!history_.empty()) {
    forecast = seasonal_model_active() ? raw_forecast(history_.size()) : history_.back();
  }
  history_.push(stored);
  residuals_.push_back(forecast.has_value() ? stored - *forecast : 0.0);
}

std::optional<double> SeasonalArima::forecast_next() const {
  if (history_.empty()) return std::nullopt;
  const double raw =
      seasonal_model_active() ? raw_forecast(history_.size()) : history_.back();
  return cfg_.log_transform ? std::exp(raw) : raw;
}

}  // namespace cloudfog::forecast

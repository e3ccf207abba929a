// Time-series container and accuracy metrics for the player-population
// forecaster (§3.5).
#pragma once

#include <cstddef>
#include <vector>

namespace cloudfog::forecast {

/// Append-only series of observations (one per time window).
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::vector<double> values);

  void push(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// 0-based access.
  double at(std::size_t t) const;

  /// Value `lag` windows before the end; lag = 0 is the latest value.
  double back(std::size_t lag = 0) const;

  /// True once `lag` can be served by back().
  bool has_lag(std::size_t lag) const { return values_.size() > lag; }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Root-mean-square error of predictions against actuals.
double rmse(const std::vector<double>& actual, const std::vector<double>& predicted);

/// Mean absolute percentage error (actuals of 0 are skipped).
double mape(const std::vector<double>& actual, const std::vector<double>& predicted);

}  // namespace cloudfog::forecast

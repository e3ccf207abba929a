#include "forecast/timeseries.hpp"

#include <cmath>

#include "util/require.hpp"

namespace cloudfog::forecast {

TimeSeries::TimeSeries(std::vector<double> values) : values_(std::move(values)) {}

double TimeSeries::at(std::size_t t) const {
  CLOUDFOG_REQUIRE(t < values_.size(), "index out of range");
  return values_[t];
}

double TimeSeries::back(std::size_t lag) const {
  CLOUDFOG_REQUIRE(lag < values_.size(), "lag exceeds series length");
  return values_[values_.size() - 1 - lag];
}

double rmse(const std::vector<double>& actual, const std::vector<double>& predicted) {
  CLOUDFOG_REQUIRE(actual.size() == predicted.size(), "length mismatch");
  CLOUDFOG_REQUIRE(!actual.empty(), "empty series");
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double e = actual[i] - predicted[i];
    acc += e * e;
  }
  return std::sqrt(acc / static_cast<double>(actual.size()));
}

double mape(const std::vector<double>& actual, const std::vector<double>& predicted) {
  CLOUDFOG_REQUIRE(actual.size() == predicted.size(), "length mismatch");
  double acc = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (actual[i] == 0.0) continue;
    acc += std::abs((actual[i] - predicted[i]) / actual[i]);
    ++counted;
  }
  CLOUDFOG_REQUIRE(counted > 0, "all actuals are zero");
  return acc / static_cast<double>(counted);
}

}  // namespace cloudfog::forecast

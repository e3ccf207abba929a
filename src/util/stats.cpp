#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cloudfog::util {

namespace {

/// P² desired-position increments for quantile p.
constexpr void p2_increments(double p, double out[5]) {
  out[0] = 0.0;
  out[1] = p / 2.0;
  out[2] = p;
  out[3] = (1.0 + p) / 2.0;
  out[4] = 1.0;
}

}  // namespace

P2Quantile::P2Quantile(double p) : p_(p) {
  CLOUDFOG_REQUIRE(p >= 0.0 && p <= 1.0, "quantile out of [0,1]");
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) {
      std::sort(heights_, heights_ + 5);
      double inc[5];
      p2_increments(p_, inc);
      for (int i = 0; i < 5; ++i) {
        positions_[i] = i + 1;
        desired_[i] = 1.0 + 4.0 * inc[i];
      }
    }
    return;
  }

  // Locate the cell containing x, stretching the extremes if needed.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }
  ++count_;

  double inc[5];
  p2_increments(p_, inc);
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += inc[i];

  // Nudge the three interior markers toward their desired positions with a
  // piecewise-parabolic height prediction (linear fallback).
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const bool right = d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0;
    const bool left = d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0;
    if (!right && !left) continue;
    const double s = d >= 0.0 ? 1.0 : -1.0;
    const double pm = positions_[i - 1];
    const double pi = positions_[i];
    const double pp = positions_[i + 1];
    const double parabolic =
        heights_[i] + s / (pp - pm) *
                          ((pi - pm + s) * (heights_[i + 1] - heights_[i]) / (pp - pi) +
                           (pp - pi - s) * (heights_[i] - heights_[i - 1]) / (pi - pm));
    if (heights_[i - 1] < parabolic && parabolic < heights_[i + 1]) {
      heights_[i] = parabolic;
    } else {
      const int j = i + static_cast<int>(s);
      heights_[i] += s * (heights_[j] - heights_[i]) / (positions_[j] - pi);
    }
    positions_[i] += s;
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact order statistic over the retained observations.
    double sorted[5];
    std::copy(heights_, heights_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const double rank = p_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, count_ - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  p50_.add(x);
  p95_.add(x);
  p99_.add(x);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

void SampleSet::add(double x) {
  samples_.push_back(x);
  dirty_ = true;
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double acc = 0.0;
  for (double s : samples_) acc += s;
  return acc / static_cast<double>(samples_.size());
}

double SampleSet::percentile(double p) const {
  CLOUDFOG_REQUIRE(p >= 0.0 && p <= 1.0, "percentile out of [0,1]");
  CLOUDFOG_REQUIRE(!samples_.empty(), "percentile of empty sample set");
  if (dirty_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  const double rank = p * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

}  // namespace cloudfog::util

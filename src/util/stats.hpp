// Small statistics toolkit: streaming moments and exact percentiles over
// retained samples. Used by the metrics collector and by the benchmark
// harnesses that regenerate the paper's figures.
#pragma once

#include <cstddef>
#include <vector>

namespace cloudfog::util {

/// Streaming quantile estimator (Jain & Chlamtac's P² algorithm): tracks
/// one p-quantile in O(1) memory with five markers. Exact up to five
/// samples; a piecewise-parabolic estimate beyond. Used by RunningStats to
/// offer percentiles without retaining samples.
class P2Quantile {
 public:
  explicit P2Quantile(double p);

  void add(double x);
  /// Current estimate; 0 with no samples, exact for n ≤ 5.
  double value() const;
  std::size_t count() const { return count_; }

 private:
  double p_;
  std::size_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {0, 0, 0, 0, 0};
};

/// Streaming mean/variance/min/max (Welford) plus P² percentile estimates
/// (p50/p95/p99). O(1) memory.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(count_); }

  /// P²-estimated percentiles (exact for ≤ 5 samples).
  double p50() const { return p50_.value(); }
  double p95() const { return p95_.value(); }
  double p99() const { return p99_.value(); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

/// Retains every sample; supports exact order statistics.
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  /// Exact p-quantile, p in [0,1], linear interpolation between ranks.
  double percentile(double p) const;
  double median() const { return percentile(0.5); }
  double p50() const { return percentile(0.50); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = true;
};

}  // namespace cloudfog::util

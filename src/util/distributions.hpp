// Random distributions used throughout the CloudFog evaluation:
//  * Bounded Pareto             — supernode capacities (§4.1, [46,47,51–53])
//  * Zipf / power-law degrees   — friend counts (skew 1.5, [49]) and the
//                                 rank-harmonic supernode pick (Eq. 16)
//  * Poisson                    — player arrivals (5 players/s, [50])
//  * Lognormal mixture          — synthetic ping-latency trace (§ net)
//  * Empirical CDF              — download-bandwidth tiers ([42,43])
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace cloudfog::util {

/// Pareto truncated to [lo, hi] by inverse-CDF of the truncated law
/// (not rejection, so sampling cost is constant).
class BoundedParetoDistribution {
 public:
  BoundedParetoDistribution(double lo, double hi, double shape);
  double sample(Rng& rng) const;

 private:
  double lo_;
  double hi_;
  double shape_;
};

/// Zipf over ranks {1..n}: P(k) ∝ 1/k^s. With s = 1 this is exactly the
/// paper's supernode preference rule (Eq. 16).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double skew);
  /// Returns a rank in [1, n].
  std::size_t sample(Rng& rng) const;
  /// Probability mass of rank k.
  double pmf(std::size_t k) const;

 private:
  std::vector<double> cdf_;
  double norm_;
  double skew_;
};

/// Poisson with mean `lambda`; uses Knuth for small means and a
/// normal approximation above 64 (sufficient for arrival counts).
int sample_poisson(Rng& rng, double lambda);

/// Exponential inter-arrival time with rate `rate` (events per unit time).
double sample_exponential(Rng& rng, double rate);

/// Standard normal via Box–Muller (one value per call; deterministic).
double sample_standard_normal(Rng& rng);

/// Lognormal with parameters of the underlying normal.
double sample_lognormal(Rng& rng, double mu, double sigma);

/// Weighted mixture of lognormals; weights need not be normalized.
class LognormalMixture {
 public:
  struct Component {
    double weight = 0.0;
    double mu = 0.0;
    double sigma = 0.0;
  };
  explicit LognormalMixture(std::vector<Component> components);
  double sample(Rng& rng) const;

 private:
  std::vector<Component> components_;
  double total_weight_;
};

/// Discrete empirical distribution: value v_i with weight w_i.
class EmpiricalDistribution {
 public:
  struct Bin {
    double value = 0.0;
    double weight = 0.0;
  };
  explicit EmpiricalDistribution(std::vector<Bin> bins);
  double sample(Rng& rng) const;
  /// Expected value under the (normalized) weights.
  double mean() const;

 private:
  std::vector<Bin> bins_;
  double total_weight_;
};

/// Power-law degree sequence generator for the friend graph:
/// P(degree = d) ∝ d^-skew over d ∈ [min_degree, max_degree].
std::vector<int> sample_power_law_degrees(Rng& rng, std::size_t n, double skew,
                                          int min_degree, int max_degree);

}  // namespace cloudfog::util

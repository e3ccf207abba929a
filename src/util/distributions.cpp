#include "util/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/require.hpp"

namespace cloudfog::util {

BoundedParetoDistribution::BoundedParetoDistribution(double lo, double hi, double shape)
    : lo_(lo), hi_(hi), shape_(shape) {
  CLOUDFOG_REQUIRE(lo > 0.0, "bounded Pareto lower bound must be positive");
  CLOUDFOG_REQUIRE(hi > lo, "bounded Pareto upper bound must exceed lower");
  CLOUDFOG_REQUIRE(shape > 0.0, "bounded Pareto shape must be positive");
}

double BoundedParetoDistribution::sample(Rng& rng) const {
  const double u = rng.next_double();
  const double la = std::pow(lo_, shape_);
  const double ha = std::pow(hi_, shape_);
  // Inverse CDF of the truncated Pareto.
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / shape_);
}

ZipfDistribution::ZipfDistribution(std::size_t n, double skew) : norm_(0.0), skew_(skew) {
  CLOUDFOG_REQUIRE(n > 0, "Zipf needs at least one rank");
  CLOUDFOG_REQUIRE(skew > 0.0, "Zipf skew must be positive");
  cdf_.reserve(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), skew);
    cdf_.push_back(acc);
  }
  norm_ = acc;
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
  const double u = rng.next_double() * norm_;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::pmf(std::size_t k) const {
  CLOUDFOG_REQUIRE(k >= 1 && k <= cdf_.size(), "Zipf rank out of range");
  return (1.0 / std::pow(static_cast<double>(k), skew_)) / norm_;
}

int sample_poisson(Rng& rng, double lambda) {
  CLOUDFOG_REQUIRE(lambda >= 0.0, "Poisson mean must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's product-of-uniforms method.
    const double threshold = std::exp(-lambda);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.next_double();
    } while (p > threshold);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // large arrival counts used in the workload generator.
  const double v = lambda + std::sqrt(lambda) * sample_standard_normal(rng) + 0.5;
  return std::max(0, static_cast<int>(v));
}

double sample_exponential(Rng& rng, double rate) {
  CLOUDFOG_REQUIRE(rate > 0.0, "exponential rate must be positive");
  double u = rng.next_double();
  while (u == 0.0) u = rng.next_double();
  return -std::log(u) / rate;
}

double sample_standard_normal(Rng& rng) {
  double u1 = rng.next_double();
  while (u1 == 0.0) u1 = rng.next_double();
  const double u2 = rng.next_double();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double sample_lognormal(Rng& rng, double mu, double sigma) {
  return std::exp(mu + sigma * sample_standard_normal(rng));
}

LognormalMixture::LognormalMixture(std::vector<Component> components)
    : components_(std::move(components)), total_weight_(0.0) {
  CLOUDFOG_REQUIRE(!components_.empty(), "mixture needs at least one component");
  for (const auto& c : components_) {
    CLOUDFOG_REQUIRE(c.weight > 0.0, "mixture weights must be positive");
    CLOUDFOG_REQUIRE(c.sigma >= 0.0, "mixture sigma must be non-negative");
    total_weight_ += c.weight;
  }
}

double LognormalMixture::sample(Rng& rng) const {
  double u = rng.next_double() * total_weight_;
  for (const auto& c : components_) {
    if (u < c.weight) return sample_lognormal(rng, c.mu, c.sigma);
    u -= c.weight;
  }
  return sample_lognormal(rng, components_.back().mu, components_.back().sigma);
}

EmpiricalDistribution::EmpiricalDistribution(std::vector<Bin> bins)
    : bins_(std::move(bins)), total_weight_(0.0) {
  CLOUDFOG_REQUIRE(!bins_.empty(), "empirical distribution needs bins");
  for (const auto& b : bins_) {
    CLOUDFOG_REQUIRE(b.weight > 0.0, "empirical weights must be positive");
    total_weight_ += b.weight;
  }
}

double EmpiricalDistribution::sample(Rng& rng) const {
  double u = rng.next_double() * total_weight_;
  for (const auto& b : bins_) {
    if (u < b.weight) return b.value;
    u -= b.weight;
  }
  return bins_.back().value;
}

double EmpiricalDistribution::mean() const {
  double acc = 0.0;
  for (const auto& b : bins_) acc += b.value * b.weight;
  return acc / total_weight_;
}

std::vector<int> sample_power_law_degrees(Rng& rng, std::size_t n, double skew,
                                          int min_degree, int max_degree) {
  CLOUDFOG_REQUIRE(min_degree >= 0, "min degree must be non-negative");
  CLOUDFOG_REQUIRE(max_degree >= min_degree, "degree bounds inverted");
  std::vector<int> degrees(n);
  if (min_degree == max_degree) {
    std::fill(degrees.begin(), degrees.end(), min_degree);
    return degrees;
  }
  // Zipf over the offset range [1, max-min+1], shifted back.
  const ZipfDistribution zipf(static_cast<std::size_t>(max_degree - min_degree + 1), skew);
  for (auto& d : degrees) d = min_degree + static_cast<int>(zipf.sample(rng)) - 1;
  return degrees;
}

}  // namespace cloudfog::util

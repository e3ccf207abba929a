// Geographic substrate.
//
// Nodes live on a 2-D plane sized like the continental US. Player positions
// are drawn from a set of metro clusters with Zipf-weighted populations plus
// a uniform rural background — this is what makes "nearby supernode" a
// meaningful concept: supernodes are drawn from the player population, so
// they concentrate where players do, while datacenters are few and far.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace cloudfog::net {

/// Position in kilometres on the simulation plane.
struct GeoPoint {
  double x_km = 0.0;
  double y_km = 0.0;

  friend bool operator==(const GeoPoint&, const GeoPoint&) = default;
};

/// Euclidean distance in kilometres.
double distance_km(const GeoPoint& a, const GeoPoint& b);

struct GeoPlaneConfig {
  double width_km = 4500.0;   ///< roughly the continental-US east-west span
  double height_km = 2800.0;  ///< north-south span
  std::size_t metro_count = 20;
  double metro_zipf_skew = 1.0;   ///< population of k-th metro ∝ 1/k
  double metro_sigma_km = 60.0;   ///< spread of a metro's population
  double rural_fraction = 0.15;   ///< players placed uniformly instead
};

/// Generates positions: metros, players, datacenters.
class GeoPlane {
 public:
  GeoPlane(GeoPlaneConfig cfg, util::Rng& rng);

  const GeoPlaneConfig& config() const { return cfg_; }
  const std::vector<GeoPoint>& metros() const { return metros_; }

  /// Draws one player/supernode position (metro-clustered or rural).
  GeoPoint sample_population_point(util::Rng& rng) const;

  /// Draws a uniformly random point (used for CDN server placement).
  GeoPoint sample_uniform_point(util::Rng& rng) const;

  /// Positions for `n` datacenters. Cloud regions are sited for land and
  /// power, not in city centres (Amazon's handful of US regions is the
  /// motivating example), so sites are a fixed uniformly random sequence:
  /// datacenter_sites(k) is always a prefix of datacenter_sites(k+1).
  /// Requires n <= 64.
  std::vector<GeoPoint> datacenter_sites(std::size_t n) const;

 private:
  GeoPlaneConfig cfg_;
  std::vector<GeoPoint> metros_;      // ordered by (synthetic) population
  std::vector<double> metro_cdf_;     // cumulative Zipf weights
  std::vector<GeoPoint> dc_sites_;    // fixed datacenter site sequence
};

}  // namespace cloudfog::net

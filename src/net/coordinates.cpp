#include "net/coordinates.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::net {

double distance_km(const GeoPoint& a, const GeoPoint& b) {
  const double dx = a.x_km - b.x_km;
  const double dy = a.y_km - b.y_km;
  return std::sqrt(dx * dx + dy * dy);
}

GeoPlane::GeoPlane(GeoPlaneConfig cfg, util::Rng& rng) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.width_km > 0 && cfg.height_km > 0, "plane dimensions must be positive");
  CLOUDFOG_REQUIRE(cfg.metro_count > 0, "need at least one metro");
  CLOUDFOG_REQUIRE(cfg.rural_fraction >= 0.0 && cfg.rural_fraction <= 1.0,
                   "rural fraction out of [0,1]");
  metros_.reserve(cfg.metro_count);
  for (std::size_t i = 0; i < cfg.metro_count; ++i) {
    metros_.push_back(GeoPoint{rng.uniform(0.0, cfg.width_km), rng.uniform(0.0, cfg.height_km)});
  }
  metro_cdf_.reserve(cfg.metro_count);
  double acc = 0.0;
  for (std::size_t k = 1; k <= cfg.metro_count; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), cfg.metro_zipf_skew);
    metro_cdf_.push_back(acc);
  }
  dc_sites_.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    dc_sites_.push_back(GeoPoint{rng.uniform(0.0, cfg.width_km), rng.uniform(0.0, cfg.height_km)});
  }
}

GeoPoint GeoPlane::sample_population_point(util::Rng& rng) const {
  if (rng.chance(cfg_.rural_fraction)) return sample_uniform_point(rng);
  const double u = rng.next_double() * metro_cdf_.back();
  const auto it = std::lower_bound(metro_cdf_.begin(), metro_cdf_.end(), u);
  const auto metro = static_cast<std::size_t>(it - metro_cdf_.begin());
  const GeoPoint& c = metros_[metro];
  GeoPoint p{c.x_km + cfg_.metro_sigma_km * util::sample_standard_normal(rng),
             c.y_km + cfg_.metro_sigma_km * util::sample_standard_normal(rng)};
  p.x_km = std::clamp(p.x_km, 0.0, cfg_.width_km);
  p.y_km = std::clamp(p.y_km, 0.0, cfg_.height_km);
  return p;
}

GeoPoint GeoPlane::sample_uniform_point(util::Rng& rng) const {
  return GeoPoint{rng.uniform(0.0, cfg_.width_km), rng.uniform(0.0, cfg_.height_km)};
}

std::vector<GeoPoint> GeoPlane::datacenter_sites(std::size_t n) const {
  CLOUDFOG_REQUIRE(n <= dc_sites_.size(), "more datacenters than prepared sites");
  return {dc_sites_.begin(), dc_sites_.begin() + static_cast<std::ptrdiff_t>(n)};
}

}  // namespace cloudfog::net

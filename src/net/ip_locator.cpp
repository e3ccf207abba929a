#include "net/ip_locator.hpp"

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::net {

IpLocator::IpLocator(double error_sigma_km) : error_sigma_km_(error_sigma_km) {
  CLOUDFOG_REQUIRE(error_sigma_km >= 0.0, "geolocation error must be non-negative");
}

IpAddress IpLocator::register_node(GeoPoint true_position, util::Rng& rng) {
  const IpAddress ip = next_ip_++;
  GeoPoint noisy{true_position.x_km + error_sigma_km_ * util::sample_standard_normal(rng),
                 true_position.y_km + error_sigma_km_ * util::sample_standard_normal(rng)};
  table_.emplace(ip, noisy);
  return ip;
}

std::optional<GeoPoint> IpLocator::locate(IpAddress ip) const {
  const auto it = table_.find(ip);
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

}  // namespace cloudfog::net

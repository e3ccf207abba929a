// IP-address-based geolocation stub.
//
// §3.2.1: "the cloud uses a supernode's IP address [29,30] to determine its
// coordinate, and then uses the coordinate to calculate its distance from a
// player". Real IP geolocation is city-accurate at best; we model it as a
// registry that returns the true position perturbed by a configurable
// city-scale error, so distance-based candidate selection in the cloud is
// realistically imprecise.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/coordinates.hpp"
#include "util/rng.hpp"

namespace cloudfog::net {

/// Synthetic IPv4 address.
using IpAddress = std::uint32_t;

class IpLocator {
 public:
  /// `error_sigma_km` is the std-dev of the per-axis geolocation error.
  explicit IpLocator(double error_sigma_km = 25.0);

  /// Allocates a fresh synthetic address for a node at `true_position`
  /// and records its (noisy) geolocation entry.
  IpAddress register_node(GeoPoint true_position, util::Rng& rng);

  /// Geolocates an address; nullopt if the address is unknown.
  std::optional<GeoPoint> locate(IpAddress ip) const;

  double error_sigma_km() const { return error_sigma_km_; }

 private:
  double error_sigma_km_;
  IpAddress next_ip_ = 0x0a000001;  // 10.0.0.1
  std::unordered_map<IpAddress, GeoPoint> table_;
};

}  // namespace cloudfog::net

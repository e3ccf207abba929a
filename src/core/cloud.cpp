#include "core/cloud.hpp"

#include <algorithm>
#include <span>

#include "util/require.hpp"

namespace cloudfog::core {

Cloud::Cloud(std::vector<DatacenterState> datacenters, const net::LatencyModel& latency,
             net::IpLocator locator)
    : datacenters_(std::move(datacenters)), latency_(latency), locator_(std::move(locator)) {
  CLOUDFOG_REQUIRE(!datacenters_.empty(), "cloud needs at least one datacenter");
}

DatacenterState& Cloud::datacenter(std::size_t i) {
  CLOUDFOG_REQUIRE(i < datacenters_.size(), "datacenter index out of range");
  return datacenters_[i];
}

const DatacenterState& Cloud::datacenter(std::size_t i) const {
  CLOUDFOG_REQUIRE(i < datacenters_.size(), "datacenter index out of range");
  return datacenters_[i];
}

std::size_t Cloud::nearest_datacenter(const net::Endpoint& who) const {
  std::size_t best = 0;
  double best_rtt = latency_.rtt_ms(who, datacenters_[0].endpoint);
  for (std::size_t i = 1; i < datacenters_.size(); ++i) {
    const double rtt = latency_.rtt_ms(who, datacenters_[i].endpoint);
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best = i;
    }
  }
  return best;
}

void Cloud::register_supernode(SupernodeState& sn, util::Rng& rng) {
  sn.ip = locator_.register_node(sn.endpoint.position, rng);
  ++registry_epoch_;
}

void Cloud::candidate_supernodes_into(const net::Endpoint& player,
                                      const std::vector<SupernodeState>& fleet, std::size_t count,
                                      std::vector<std::size_t>& out) const {
  if (mode_ == CandidateMode::kLinear) {
    candidate_supernodes_linear(player, fleet, count, out);
    return;
  }
  out.clear();
  if (count == 0 || fleet.empty()) return;
  ensure_index(fleet);
  index_.nearest_accepting(player.position, count, out);
}

void Cloud::candidate_supernodes_for(PlayerState& player,
                                     const std::vector<SupernodeState>& fleet,
                                     std::size_t count, std::vector<std::size_t>& out) const {
  if (mode_ == CandidateMode::kLinear || fleet.size() > kMaxNearbyFleet) {
    candidate_supernodes_into(player.info.endpoint, fleet, count, out);
    return;
  }
  out.clear();
  if (count == 0 || fleet.empty()) return;
  ensure_index(fleet);
  NearbySupernodes& nearby = player.nearby;
  if (nearby.build != index_builds_) {
    nearby.size = static_cast<std::uint8_t>(
        index_.nearest_registered(player.info.endpoint.position, nearby.nodes));
    nearby.build = index_builds_;
  }
  if (index_.accepting_prefix(std::span(nearby.nodes.data(), nearby.size), count, out)) return;
  index_.nearest_accepting(player.info.endpoint.position, count, out);
}

void Cloud::note_seat_change(const std::vector<SupernodeState>& fleet, std::size_t i) const {
  if (!indexed_for(fleet)) return;
  CLOUDFOG_REQUIRE(i < fleet.size(), "seat change for a node outside the fleet");
  index_.set_accepting(i, fleet[i].accepting());
}

bool Cloud::seat_index_consistent(const std::vector<SupernodeState>& fleet) const {
  return !indexed_for(fleet) || index_.accepting_matches(fleet);
}

void Cloud::candidate_supernodes_linear(const net::Endpoint& player,
                                        const std::vector<SupernodeState>& fleet,
                                        std::size_t count, std::vector<std::size_t>& out) const {
  out.clear();
  auto& scored = linear_scratch_;
  scored.clear();
  scored.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const SupernodeState& sn = fleet[i];
    if (!sn.accepting()) continue;
    // Distance via the registry's (noisy) geolocation — the cloud does not
    // know the supernode's true position, only what its IP resolves to.
    const auto located = locator_.locate(sn.ip);
    const net::GeoPoint where = located.value_or(sn.endpoint.position);
    scored.emplace_back(net::distance_km(player.position, where), i);
  }
  const std::size_t take = std::min(count, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<std::ptrdiff_t>(take),
                    scored.end(),
                    [](const std::pair<double, std::size_t>& a,
                       const std::pair<double, std::size_t>& b) {
                      if (a.first != b.first) return a.first < b.first;
                      return a.second < b.second;
                    });
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) out.push_back(scored[i].second);
}

bool Cloud::indexed_for(const std::vector<SupernodeState>& fleet) const {
  return indexed_fleet_ == fleet.data() && indexed_size_ == fleet.size() &&
         indexed_epoch_ == registry_epoch_;
}

void Cloud::ensure_index(const std::vector<SupernodeState>& fleet) const {
  if (indexed_for(fleet)) return;
  std::vector<net::GeoPoint> positions;
  positions.reserve(fleet.size());
  for (const SupernodeState& sn : fleet)
    positions.push_back(locator_.locate(sn.ip).value_or(sn.endpoint.position));
  index_.rebuild(positions, fleet);
  indexed_fleet_ = fleet.data();
  indexed_size_ = fleet.size();
  indexed_epoch_ = registry_epoch_;
  ++index_builds_;
}

}  // namespace cloudfog::core

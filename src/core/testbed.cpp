#include "core/testbed.hpp"

#include <algorithm>
#include <numeric>

#include "util/require.hpp"

namespace cloudfog::core {

TestbedConfig TestbedConfig::peersim(std::size_t players) {
  TestbedConfig cfg;
  cfg.profile = TestbedProfile::kPeerSim;
  cfg.player_count = players;
  cfg.supernode_capable_fraction = 0.10;
  cfg.datacenter_count = 5;
  cfg.servers_per_datacenter = 50;
  // Sized so that direct cloud streaming of the full population congests
  // at the evening peak (the regime the paper's Cloud baseline runs in).
  cfg.datacenter_uplink_mbps = 800.0;
  return cfg;
}

TestbedConfig TestbedConfig::planetlab(std::size_t players) {
  TestbedConfig cfg;
  cfg.profile = TestbedProfile::kPlanetLab;
  cfg.player_count = players;
  // 30 of 750 nodes "have the capacity to be supernodes" (§4.1).
  cfg.supernode_capable_fraction = 0.04;
  cfg.datacenter_count = 2;
  cfg.servers_per_datacenter = 50;
  cfg.datacenter_uplink_mbps = 150.0;
  return cfg;
}

namespace {

net::TraceProfile trace_profile_for(TestbedProfile profile) {
  return profile == TestbedProfile::kPeerSim ? net::TraceProfile::kLeagueOfLegends
                                             : net::TraceProfile::kPlanetLab;
}

}  // namespace

Testbed::Testbed(TestbedConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      seed_(seed),
      build_rng_(util::splitmix64(seed), util::splitmix64(seed ^ 0x7e57bed5ULL)),
      plane_(cfg.geo, build_rng_),
      trace_(trace_profile_for(cfg.profile)),
      latency_(net::LatencyModelConfig{}),
      bandwidth_(cfg.bandwidth),
      catalog_(game::GameCatalog::paper_default()),
      activity_(cfg.activity),
      graph_(0) {
  CLOUDFOG_REQUIRE(cfg.player_count >= 2, "need at least two players");
  CLOUDFOG_REQUIRE(cfg.datacenter_count >= 1, "need at least one datacenter");
  CLOUDFOG_REQUIRE(cfg.datacenter_count <= 64, "more datacenters than prepared sites");
  CLOUDFOG_REQUIRE(cfg.supernode_capable_fraction >= 0.0 &&
                       cfg.supernode_capable_fraction <= 1.0,
                   "capable fraction out of [0,1]");

  util::Rng player_rng = build_rng_.fork("players");
  players_.reserve(cfg.player_count);
  for (std::size_t i = 0; i < cfg.player_count; ++i) {
    PlayerInfo info;
    info.id = i;
    info.endpoint =
        net::make_endpoint(plane_.sample_population_point(player_rng), trace_, player_rng);
    info.bandwidth = bandwidth_.sample_node_bandwidth(player_rng);
    info.duration_class = activity_.sample_duration_class(player_rng);
    info.supernode_capable = player_rng.chance(cfg.supernode_capable_fraction);
    players_.push_back(info);
  }

  // Capable players in a fixed shuffled order; fleets take a prefix.
  for (std::size_t i = 0; i < players_.size(); ++i) {
    if (players_[i].supernode_capable) supernode_capable_.push_back(i);
  }
  CLOUDFOG_REQUIRE(cfg.supernode_capable_fraction == 0.0 || !supernode_capable_.empty(),
                   "no supernode-capable players were drawn");
  util::Rng shuffle_rng = build_rng_.fork("capable-order");
  std::shuffle(supernode_capable_.begin(), supernode_capable_.end(), shuffle_rng);

  // Per-capable-player supernode characteristics, sampled once so that a
  // fleet of size k is always a prefix-stable subset.
  util::Rng sn_rng = build_rng_.fork("supernodes");
  supernode_capacity_.reserve(supernode_capable_.size());
  supernode_upload_.reserve(supernode_capable_.size());
  for (std::size_t i = 0; i < supernode_capable_.size(); ++i) {
    const int natural_capacity = bandwidth_.sample_supernode_capacity(sn_rng);
    // Supernodes are required to have a "superior network connection"
    // (§3.1.1): the uplink carries the machine's natural seat complement
    // at the top ladder bitrate (1.8 Mbps), with some headroom. A forced
    // capacity (Fig. 10/11 sweeps) overrides only the *seat count* — more
    // players on the same hardware, which is the point of those sweeps.
    supernode_capacity_.push_back(cfg.forced_supernode_capacity.value_or(natural_capacity));
    supernode_upload_.push_back(static_cast<double>(natural_capacity) * 1.8 *
                                sn_rng.uniform(1.0, 1.3));
    supernode_access_.push_back(sn_rng.uniform(1.5, 4.0));
  }

  util::Rng social_rng = build_rng_.fork("social");
  graph_ = social::generate_power_law_graph(cfg.player_count, cfg.social, social_rng);
}

std::vector<DatacenterState> Testbed::make_datacenters(std::optional<std::size_t> count) const {
  const std::size_t n = count.value_or(cfg_.datacenter_count);
  CLOUDFOG_REQUIRE(n >= 1, "need at least one datacenter");
  const auto sites = plane_.datacenter_sites(n);
  std::vector<DatacenterState> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    DatacenterState dc;
    dc.id = i;
    dc.endpoint = net::make_infrastructure_endpoint(sites[i]);
    dc.uplink_mbps = cfg_.datacenter_uplink_mbps;
    out.push_back(dc);
  }
  return out;
}

std::vector<SupernodeState> Testbed::make_supernode_fleet(std::size_t count) const {
  CLOUDFOG_REQUIRE(count <= supernode_capable_.size(),
                   "fleet larger than the supernode-capable population");
  std::vector<SupernodeState> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t owner = supernode_capable_[i];
    SupernodeState sn;
    sn.id = i;
    sn.owner_player = owner;
    // A supernode sits at its owner's location but on a "superior network
    // connection" (§3.1.1 requirement 3) — office/fibre-grade access, not
    // the owner's residential last mile.
    sn.endpoint = players_[owner].endpoint;
    sn.endpoint.access_latency_ms = supernode_access_[i];
    sn.upload_mbps = supernode_upload_[i];
    sn.capacity = supernode_capacity_[i];
    fleet.push_back(sn);
  }
  return fleet;
}

std::vector<CdnServerState> Testbed::make_cdn_servers(std::size_t count,
                                                      std::uint64_t salt) const {
  util::Rng rng(util::splitmix64(seed_ ^ 0xcd41234ULL ^ salt),
                util::splitmix64(seed_ ^ 0xcd45678ULL ^ salt));
  std::vector<CdnServerState> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    CdnServerState edge;
    edge.id = i;
    // §4.1: "randomly distributed servers" — placement is uniform over the
    // plane, one of the structural disadvantages vs supernodes, which sit
    // exactly where players are.
    edge.endpoint = net::make_infrastructure_endpoint(plane_.sample_uniform_point(rng));
    edge.uplink_mbps = cfg_.cdn_uplink_mbps;
    edge.capacity = cfg_.cdn_capacity_players;
    out.push_back(edge);
  }
  return out;
}

}  // namespace cloudfog::core

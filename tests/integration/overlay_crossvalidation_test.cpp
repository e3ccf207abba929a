// Cross-validation: the event-driven overlay protocols (src/overlay) and
// the fluid FogManager (src/core) implement the same §3.2 conversation.
// Their measured join latencies must agree to first order on identical
// geometry — if they diverge, one of the two models is wrong.
#include <gtest/gtest.h>

#include <optional>

#include "core/fog_manager.hpp"
#include "overlay/join_session.hpp"

namespace cloudfog {
namespace {

struct Geometry {
  net::Endpoint player{{0.0, 0.0}, 8.0};
  net::Endpoint supernode{{30.0, 0.0}, 2.5};
  net::Endpoint datacenter = net::make_infrastructure_endpoint({2500.0, 400.0});
};

/// Joins via the event-driven overlay and returns the measured latency.
double overlay_join_ms(const Geometry& geo, const net::LatencyModel& latency) {
  sim::Simulator sim;
  overlay::MessageNetwork network(sim, latency);
  overlay::CloudDirectoryAgent directory(network, geo.datacenter);
  overlay::SupernodeAgent sn(network, geo.supernode, 5);
  directory.admit(sn.address(), geo.supernode.position);
  overlay::PlayerAgent player(sim, network, geo.player);
  std::optional<overlay::JoinResult> result;
  player.join(directory.address(), overlay::JoinConfig{}, nullptr,
              [&result](const overlay::JoinResult& r) { result = r; }, util::Rng(3));
  sim.run();
  EXPECT_TRUE(result.has_value() && result->fog_connected);
  return result->join_latency_ms;
}

/// Joins via the fluid FogManager and returns its estimated latency.
double fluid_join_ms(const Geometry& geo, const net::LatencyModel& latency) {
  std::vector<core::DatacenterState> dcs(1);
  dcs[0].endpoint = geo.datacenter;
  core::Cloud cloud(std::move(dcs), latency, net::IpLocator{0.0});
  obs::Recorder rec;
  core::FogManager fog(core::FogManagerConfig{}, cloud, latency, rec);
  std::vector<core::SupernodeState> fleet(1);
  fleet[0].endpoint = geo.supernode;
  fleet[0].capacity = 5;
  fleet[0].upload_mbps = 10.0;
  util::Rng reg(1);
  cloud.register_supernode(fleet[0], reg);

  core::PlayerState p;
  p.info.endpoint = geo.player;
  p.game = 4;  // 110 ms budget: the supernode qualifies in both models
  const auto catalog = game::GameCatalog::paper_default();
  util::Rng rng(2);
  const auto outcome = fog.select_supernode(p, fleet, catalog, 1, false, rng);
  EXPECT_EQ(outcome.serving.kind, core::ServingKind::kSupernode);
  return outcome.join_latency_ms;
}

TEST(OverlayCrossValidation, JoinLatenciesAgreeToFirstOrder) {
  const net::LatencyModel latency{net::LatencyModelConfig{}};
  const Geometry geo;
  const double event_ms = overlay_join_ms(geo, latency);
  const double fluid_ms = fluid_join_ms(geo, latency);
  // Same conversation, slightly different accounting (the fluid model
  // folds the connect handshake into a constant): they must agree within
  // 40 % and a small absolute slack.
  EXPECT_NEAR(event_ms, fluid_ms, std::max(fluid_ms * 0.4, 40.0));
}

TEST(OverlayCrossValidation, BothModelsChargeTheCloudRoundTrip) {
  // Moving the datacenter further away must raise both latencies by the
  // same amount (one RTT to the directory).
  const net::LatencyModel latency{net::LatencyModelConfig{}};
  Geometry near_geo;
  Geometry far_geo;
  far_geo.datacenter = net::make_infrastructure_endpoint({4400.0, 2700.0});
  const double d_event = overlay_join_ms(far_geo, latency) - overlay_join_ms(near_geo, latency);
  const double d_fluid = fluid_join_ms(far_geo, latency) - fluid_join_ms(near_geo, latency);
  EXPECT_GT(d_event, 0.0);
  EXPECT_GT(d_fluid, 0.0);
  EXPECT_NEAR(d_event, d_fluid, d_fluid * 0.25 + 5.0);
}

}  // namespace
}  // namespace cloudfog

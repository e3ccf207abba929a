// Cross-validation: the event-driven join oracle (src/oracle) and the
// fluid FogManager (src/core) implement the same §3.2.1 conversation.
// Their measured join latencies must agree to first order on identical
// geometry — if they diverge, one of the two models is wrong. The paper's
// reference geometry comes first, then seeded random ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "core/fog_manager.hpp"
#include "oracle/join_session.hpp"

namespace cloudfog {
namespace {

/// Long enough for every message, timeout and retry of a run to fire.
constexpr sim::SimTime kDrainS = 3600.0;

struct Geometry {
  net::Endpoint player{{0.0, 0.0}, 8.0};
  net::Endpoint supernode{{30.0, 0.0}, 2.5};
  net::Endpoint datacenter = net::make_infrastructure_endpoint({2500.0, 400.0});
};

/// The point `distance_km` from `from` in a uniformly drawn direction.
net::GeoPoint offset(net::GeoPoint from, double distance_km, util::Rng& rng) {
  const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
  return {from.x_km + distance_km * std::cos(angle), from.y_km + distance_km * std::sin(angle)};
}

/// A player anywhere in a 4,000 km square with a 3–15 ms access link, one
/// supernode 5–300 km away (1–5 ms access) and a datacenter `dc_km` away.
Geometry random_geometry(util::Rng& rng, double dc_km) {
  Geometry geo;
  const net::GeoPoint at{rng.uniform(0.0, 4000.0), rng.uniform(0.0, 4000.0)};
  geo.player = net::Endpoint{at, rng.uniform(3.0, 15.0)};
  const net::GeoPoint sn_at = offset(at, rng.uniform(5.0, 300.0), rng);
  geo.supernode = net::Endpoint{sn_at, rng.uniform(1.0, 5.0)};
  geo.datacenter = net::make_infrastructure_endpoint(offset(at, dc_km, rng));
  return geo;
}

/// The reference geometry followed by `count` seeded random ones, each
/// with its datacenter 500–5,000 km from the player.
std::vector<Geometry> geometries(std::size_t count) {
  std::vector<Geometry> out{Geometry{}};
  util::Rng rng(20240601);
  while (out.size() <= count) out.push_back(random_geometry(rng, rng.uniform(500.0, 5000.0)));
  return out;
}

/// Joins via the event-driven oracle and returns the measured latency.
double overlay_join_ms(const Geometry& geo, const net::LatencyModel& latency) {
  sim::Simulator sim;
  obs::Recorder rec;
  oracle::MessageNetwork network(sim, latency);
  oracle::CloudDirectoryAgent directory(network, geo.datacenter);
  oracle::SupernodeAgent sn(network, geo.supernode, 5);
  directory.admit(sn.address(), geo.supernode.position);
  oracle::PlayerAgent player(sim, network, geo.player, rec);
  std::optional<oracle::JoinResult> result;
  player.join(directory.address(), oracle::JoinConfig{}, nullptr,
              [&result](const oracle::JoinResult& r) { result = r; }, util::Rng(3));
  sim.run_until(sim.now() + kDrainS);
  EXPECT_TRUE(result.has_value() && result->fog_connected);
  return result.has_value() ? result->join_latency_ms : 0.0;
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
  const std::vector<Geometry> geos = geometries(500);
  for (std::size_t i = 0; i < geos.size(); ++i) {
    SCOPED_TRACE("geometry " + std::to_string(i));
    const double event_ms = overlay_join_ms(geos[i], latency);
    const double fluid_ms = fluid_join_ms(geos[i], latency);
    // Same conversation, slightly different accounting (the fluid model
    // folds the connect handshake into a constant): they must agree within
    // 40 % and a small absolute slack.
    EXPECT_NEAR(event_ms, fluid_ms, std::max(fluid_ms * 0.4, 40.0));
  }
}

TEST(OverlayCrossValidation, BothModelsChargeTheCloudRoundTrip) {
  // Moving the datacenter further away must raise both latencies by the
  // same amount (one RTT to the directory).
  const net::LatencyModel latency{net::LatencyModelConfig{}};
  std::vector<std::pair<Geometry, Geometry>> pairs;
  Geometry far_ref;
  far_ref.datacenter = net::make_infrastructure_endpoint({4400.0, 2700.0});
  pairs.emplace_back(Geometry{}, far_ref);
  util::Rng rng(20240602);
  while (pairs.size() <= 300) {
    // Two datacenter distances in 500–5,000 km; the same player and
    // supernode see the nearer one first, then the farther one.
    const double a_km = rng.uniform(500.0, 5000.0);
    const double b_km = rng.uniform(500.0, 5000.0);
    const Geometry near_geo = random_geometry(rng, std::min(a_km, b_km));
    Geometry far_geo = near_geo;
    far_geo.datacenter = net::make_infrastructure_endpoint(
        offset(near_geo.player.position, std::max(a_km, b_km), rng));
    pairs.emplace_back(near_geo, far_geo);
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    const auto& [near_geo, far_geo] = pairs[i];
    const double d_event = overlay_join_ms(far_geo, latency) - overlay_join_ms(near_geo, latency);
    const double d_fluid = fluid_join_ms(far_geo, latency) - fluid_join_ms(near_geo, latency);
    EXPECT_GT(d_event, 0.0);
    EXPECT_GT(d_fluid, 0.0);
    EXPECT_NEAR(d_event, d_fluid, d_fluid * 0.25 + 5.0);
  }
}

}  // namespace
}  // namespace cloudfog

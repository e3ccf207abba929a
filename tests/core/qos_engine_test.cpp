#include "core/qos_engine.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "video/rate_adapter.hpp"

namespace cloudfog::core {
namespace {

class QosEngineTest : public ::testing::Test {
 protected:
  QosEngineTest()
      : latency_(net::LatencyModelConfig{}), catalog_(game::GameCatalog::paper_default()) {
    std::vector<DatacenterState> dcs(1);
    dcs[0].endpoint = net::make_infrastructure_endpoint({1500.0, 0.0});
    dcs[0].uplink_mbps = 100.0;
    cloud_.emplace(std::move(dcs), latency_, net::IpLocator{0.0});
    engine_.emplace(QosEngineConfig{}, latency_, rec_);
  }

  PlayerState make_player(double x, game::GameId game, ServingRef serving, bool adapts = false) {
    PlayerState p;
    p.info.id = players_.size();
    p.info.endpoint = net::Endpoint{{x, 0.0}, 5.0};
    p.info.bandwidth = {10.0, 3.3};
    p.game = game;
    p.online = true;
    p.serving = serving;
    p.state_dc = 0;
    video::RateAdapterConfig adapter;
    adapter.enabled = adapts;
    p.session.emplace(catalog_, game, adapter);
    return p;
  }

  void add_sn(double x, double upload = 20.0, int capacity = 10) {
    SupernodeState sn;
    sn.id = fleet_.size();
    sn.endpoint = net::Endpoint{{x, 0.0}, 2.0};
    sn.upload_mbps = upload;
    sn.capacity = capacity;
    fleet_.push_back(sn);
  }

  /// Mean response latency of one subcycle over the current world.
  double response_latency_ms() {
    return engine_->run_subcycle(players_, fleet_, *cloud_, cdn_).avg_response_latency_ms;
  }

  net::LatencyModel latency_;
  game::GameCatalog catalog_;
  std::optional<Cloud> cloud_;
  obs::Recorder rec_;
  std::optional<QosEngine> engine_;
  std::vector<PlayerState> players_;
  std::vector<SupernodeState> fleet_;
  std::vector<CdnServerState> cdn_;
};

TEST_F(QosEngineTest, NearbySupernodeBeatsFarCloud) {
  add_sn(10.0);
  fleet_[0].served = 1;
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  // Both sessions ran; the fog-served one saw higher continuity.
  const double fog_cont = players_[0].cycle_continuity_sum;
  const double cloud_cont = players_[1].cycle_continuity_sum;
  EXPECT_GT(fog_cont, cloud_cont);
}

TEST_F(QosEngineTest, AggregatesCountServingKinds) {
  add_sn(10.0);
  fleet_[0].served = 1;
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  players_.push_back(make_player(100.0, 3, {ServingKind::kCloud, 0}));
  players_.push_back(make_player(200.0, 2, {ServingKind::kNone, 0}));
  players_[2].online = false;
  const auto qos = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  EXPECT_EQ(qos.online_sessions, 2u);
  EXPECT_EQ(qos.fog_served, 1u);
  EXPECT_EQ(qos.cloud_served, 1u);
  EXPECT_EQ(qos.cdn_served, 0u);
}

TEST_F(QosEngineTest, EgressIncludesVideoAndUpdateFeeds) {
  add_sn(10.0);
  fleet_[0].served = 1;
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  const auto qos = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  // One direct 1800 kbps stream + one 200 kbps update feed = 2.0 Mbps.
  EXPECT_NEAR(qos.cloud_egress_mbps, 2.0, 1e-6);
}

TEST_F(QosEngineTest, IdleSupernodeGetsNoUpdateFeed) {
  add_sn(10.0);  // deployed but serving nobody
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  const auto qos = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  EXPECT_NEAR(qos.cloud_egress_mbps, 1.8, 1e-6);
}

TEST_F(QosEngineTest, OverloadedSupernodeHurtsContinuity) {
  add_sn(10.0, /*upload=*/3.0, /*capacity=*/10);  // tiny uplink
  add_sn(12.0, /*upload=*/40.0, /*capacity=*/10);
  fleet_[0].served = 3;
  fleet_[1].served = 3;
  for (int i = 0; i < 3; ++i) {
    players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
    players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 1}));
  }
  engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  // Players on the saturated supernode (3 × 1.8 Mbps demand vs 3 Mbps)
  // experienced worse continuity than those on the healthy one.
  EXPECT_LT(players_[0].cycle_continuity_sum, players_[1].cycle_continuity_sum);
}

TEST_F(QosEngineTest, CrossServerLatencyAddsToResponse) {
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  players_[1].cross_server_ms = 40.0;
  const auto qos = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  EXPECT_NEAR(qos.avg_server_latency_ms, 20.0, 1e-9);
  // In a one-player world the response grows by exactly the term.
  players_.clear();
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  const double local = response_latency_ms();
  players_.clear();
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  players_[0].cross_server_ms = 40.0;
  EXPECT_NEAR(response_latency_ms() - local, 40.0, 1e-9);
}

TEST_F(QosEngineTest, CdnPathIncludesCooperationPenalty) {
  // Two one-player worlds with the same geometry: the player 10 km from
  // an edge server, then 10 km from a supernode.
  CdnServerState edge;
  edge.endpoint = net::make_infrastructure_endpoint({10.0, 0.0});
  edge.uplink_mbps = 100.0;
  edge.capacity = 10;
  edge.served = 1;
  cdn_.push_back(edge);
  players_.push_back(make_player(0.0, 4, {ServingKind::kCdn, 0}));
  const double cdn_lat = response_latency_ms();

  players_.clear();
  cdn_.clear();
  add_sn(10.0);
  fleet_[0].served = 1;
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  const double fog_lat = response_latency_ms();
  // The CDN pays wide-area state cooperation on every response.
  EXPECT_GT(cdn_lat, fog_lat + QosEngineConfig{}.cdn_cooperation_ms * 0.5);
}

TEST_F(QosEngineTest, UnloadedLatencyGrowsWithBitrate) {
  // Two one-player worlds on the same idle cloud path; only the game, and
  // with it the stream's default bitrate, differs.
  players_.push_back(make_player(0.0, 0, {ServingKind::kCloud, 0}));
  const double slow = response_latency_ms();
  players_.clear();
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  const double fast = response_latency_ms();
  ASSERT_LT(catalog_.ladder().at_level(catalog_.game(0).default_quality_level).bitrate_kbps,
            catalog_.ladder().at_level(catalog_.game(4).default_quality_level).bitrate_kbps);
  EXPECT_GT(fast, slow);
}

TEST_F(QosEngineTest, AverageResponseIsThePerSessionMean) {
  // A cloud and a fog session share no entity, so together each sees
  // what it sees alone.
  add_sn(10.0);
  fleet_[0].served = 1;
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  const double cloud_lat = response_latency_ms();
  players_.clear();
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  const double fog_lat = response_latency_ms();
  players_.clear();
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  EXPECT_NEAR(response_latency_ms(), (cloud_lat + fog_lat) / 2.0, 1e-9);
}

TEST_F(QosEngineTest, EmptySubcycleIsWellDefined) {
  const auto qos = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
  EXPECT_EQ(qos.online_sessions, 0u);
  EXPECT_DOUBLE_EQ(qos.cloud_egress_mbps, 0.0);
}

// One adapting session among non-adapting ones on an overloaded
// supernode: its down-switches move the demand every other session there
// sees, so the memoized engine must keep substep order whenever any
// session on the work list adapts. It is listed last, after the sessions
// whose substeps its switches move.
TEST_F(QosEngineTest, OneAdaptingSessionKeepsMemoizedSubstepsInOrder) {
  add_sn(10.0, /*upload=*/3.0, /*capacity=*/10);
  fleet_[0].served = 4;
  for (int i = 0; i < 3; ++i) players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kCloud, 0}));
  players_.push_back(make_player(0.0, 4, {ServingKind::kSupernode, 0}, /*adapts=*/true));
  const double start_kbps = players_.back().session->current_bitrate_kbps();

  QosEngineConfig cfg;
  cfg.memoize = false;
  const QosEngine reference(cfg, latency_, rec_);
  std::vector<PlayerState> ref_players = players_;
  std::vector<SupernodeState> ref_fleet = fleet_;
  for (int sub = 0; sub < 4; ++sub) {
    SCOPED_TRACE("subcycle " + std::to_string(sub));
    const auto a = engine_->run_subcycle(players_, fleet_, *cloud_, cdn_);
    const auto b = reference.run_subcycle(ref_players, ref_fleet, *cloud_, cdn_);
    EXPECT_EQ(a.avg_response_latency_ms, b.avg_response_latency_ms);
    EXPECT_EQ(a.avg_server_latency_ms, b.avg_server_latency_ms);
    EXPECT_EQ(a.avg_continuity, b.avg_continuity);
    EXPECT_EQ(a.satisfied_fraction, b.satisfied_fraction);
    EXPECT_EQ(a.avg_mos, b.avg_mos);
    EXPECT_EQ(a.cloud_egress_mbps, b.cloud_egress_mbps);
    EXPECT_EQ(a.online_sessions, b.online_sessions);
    for (std::size_t i = 0; i < players_.size(); ++i) {
      EXPECT_EQ(players_[i].session->current_bitrate_kbps(),
                ref_players[i].session->current_bitrate_kbps());
      EXPECT_EQ(players_[i].cycle_continuity_sum, ref_players[i].cycle_continuity_sum);
    }
    EXPECT_EQ(fleet_[0].demanded_kbps, ref_fleet[0].demanded_kbps);
  }
  EXPECT_LT(players_.back().session->current_bitrate_kbps(), start_kbps);
  EXPECT_EQ(players_.front().session->current_bitrate_kbps(), start_kbps);
}

TEST_F(QosEngineTest, ConfigValidation) {
  QosEngineConfig cfg;
  cfg.substeps = 0;
  EXPECT_THROW(QosEngine(cfg, latency_, rec_), ConfigError);
  cfg = QosEngineConfig{};
  cfg.burst_headroom = 0.5;
  EXPECT_THROW(QosEngine(cfg, latency_, rec_), ConfigError);
}

}  // namespace
}  // namespace cloudfog::core

#include "core/fog_manager.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::core {
namespace {

class FogManagerTest : public ::testing::Test {
 protected:
  FogManagerTest()
      : latency_(net::LatencyModelConfig{}), catalog_(game::GameCatalog::paper_default()) {
    std::vector<DatacenterState> dcs(1);
    dcs[0].endpoint = net::make_infrastructure_endpoint({2000.0, 0.0});
    cloud_.emplace(std::move(dcs), latency_, net::IpLocator{0.0});
    fog_.emplace(FogManagerConfig{}, *cloud_, latency_, rec_);
  }

  void add_sn(double x, int capacity = 5, double access = 2.0) {
    SupernodeState sn;
    sn.id = fleet_.size();
    sn.endpoint = net::Endpoint{{x, 0.0}, access};
    sn.capacity = capacity;
    sn.upload_mbps = capacity * 2.0;
    util::Rng rng(fleet_.size() + 10);
    cloud_->register_supernode(sn, rng);
    fleet_.push_back(sn);
  }

  PlayerState make_player(double x, game::GameId game = 4) {
    PlayerState p;
    p.info.id = 0;
    p.info.endpoint = net::Endpoint{{x, 0.0}, 5.0};
    p.info.bandwidth = {10.0, 3.3};
    p.game = game;
    return p;
  }

  net::LatencyModel latency_;
  game::GameCatalog catalog_;
  std::optional<Cloud> cloud_;
  obs::Recorder rec_;
  std::optional<FogManager> fog_;
  std::vector<SupernodeState> fleet_;
  util::Rng rng_{77};
};

TEST_F(FogManagerTest, SelectsNearbySupernodeAndClaimsSeat) {
  add_sn(10.0);
  PlayerState p = make_player(0.0);
  const auto outcome =
      fog_->select_supernode(p, fleet_, catalog_, /*day=*/1, /*reputation=*/false, rng_);
  EXPECT_EQ(outcome.serving.kind, ServingKind::kSupernode);
  EXPECT_EQ(outcome.serving.index, 0u);
  EXPECT_EQ(fleet_[0].served, 1);
  EXPECT_GT(outcome.join_latency_ms, 0.0);
  EXPECT_EQ(p.serving, outcome.serving);
}

TEST_F(FogManagerTest, FallsBackToCloudWithoutSupernodes) {
  PlayerState p = make_player(0.0);
  const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  EXPECT_EQ(outcome.serving.kind, ServingKind::kCloud);
  EXPECT_EQ(outcome.capacity_asks, 0);
}

TEST_F(FogManagerTest, LmaxFiltersFarSupernodes) {
  // Game 0 has a 30 ms budget; a supernode 4000 km away cannot qualify.
  add_sn(4000.0);
  PlayerState p = make_player(0.0, /*game=*/0);
  const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  EXPECT_EQ(outcome.serving.kind, ServingKind::kCloud);
  EXPECT_EQ(outcome.probes, 1);
  EXPECT_EQ(outcome.capacity_asks, 0);
}

TEST_F(FogManagerTest, LenientGameAcceptsFartherSupernode) {
  add_sn(4000.0);
  PlayerState p = make_player(0.0, /*game=*/4);  // 110 ms budget
  const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  EXPECT_EQ(outcome.serving.kind, ServingKind::kSupernode);
}

TEST_F(FogManagerTest, ReputationOrdersSelection) {
  add_sn(10.0);
  add_sn(12.0);
  PlayerState p = make_player(0.0);
  // The player has rated supernode 1 highly and supernode 0 poorly.
  p.reputation.add_rating(0, 0.1, 1);
  p.reputation.add_rating(1, 0.95, 1);
  const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 2, /*reputation=*/true, rng_);
  EXPECT_EQ(outcome.serving.index, 1u);
}

// Without the reputation strategy, step 3 orders the qualified candidates
// by the rng alone, so the join never reads a score: a player's ratings
// cannot change what it selects or what the selection costs.
TEST_F(FogManagerTest, RatingsChangeSelectionOnlyWithReputation) {
  for (int k = 0; k < 6; ++k) add_sn(10.0 + 2.0 * k);
  PlayerState unrated = make_player(0.0);
  PlayerState rated = make_player(0.0);
  rated.reputation.add_rating(1, 0.2, 1);
  rated.reputation.add_rating(3, 0.6, 1);
  rated.reputation.add_rating(5, 0.95, 1);
  const auto select = [&](PlayerState p, bool reputation) {
    util::Rng rng(2024);
    const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 2, reputation, rng);
    fog_->release(p, fleet_);
    return outcome;
  };

  const auto a = select(unrated, false);
  const auto b = select(rated, false);
  ASSERT_EQ(a.serving.kind, ServingKind::kSupernode);
  EXPECT_EQ(a.serving, b.serving);
  EXPECT_EQ(a.join_latency_ms, b.join_latency_ms);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.capacity_asks, b.capacity_asks);

  // With it, unknown nodes all score 0 and keep probe (distance) order,
  // while the ratings put the best-rated node first.
  const auto c = select(unrated, true);
  const auto d = select(rated, true);
  EXPECT_EQ(c.serving.index, 0u);
  EXPECT_EQ(d.serving.index, 5u);
}

TEST_F(FogManagerTest, SequentialClaimSkipsFullSupernode) {
  add_sn(10.0, /*capacity=*/0);  // advertises but cannot accept
  add_sn(12.0, /*capacity=*/3);
  PlayerState p = make_player(0.0);
  p.reputation.add_rating(0, 0.9, 1);  // would be preferred if it had room
  const auto outcome = fog_->select_supernode(p, fleet_, catalog_, 2, true, rng_);
  EXPECT_EQ(outcome.serving.index, 1u);
}

TEST_F(FogManagerTest, ReleaseFreesSeat) {
  add_sn(10.0);
  PlayerState p = make_player(0.0);
  fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  ASSERT_EQ(fleet_[0].served, 1);
  fog_->release(p, fleet_);
  EXPECT_EQ(fleet_[0].served, 0);
  EXPECT_FALSE(p.serving.attached());
}

TEST_F(FogManagerTest, MigrationUsesCandidateCacheFirst) {
  add_sn(10.0);
  add_sn(20.0);
  PlayerState p = make_player(0.0);
  fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  const std::size_t original = p.serving.index;
  // Fail the serving supernode and migrate.
  fleet_[original].failed = true;
  fleet_[original].served = 0;
  p.serving = ServingRef{};
  const auto outcome = fog_->migrate(p, fleet_, catalog_, 1, false, rng_);
  EXPECT_EQ(outcome.serving.kind, ServingKind::kSupernode);
  EXPECT_NE(outcome.serving.index, original);
  // Migration pays the detection timeout on top of the probes.
  EXPECT_GE(outcome.join_latency_ms, FogManagerConfig{}.detection.detection_ms());
}

TEST_F(FogManagerTest, MigrationLatencyIsSubSecondScale) {
  // The paper measures ~0.8 s migrations (Fig. 9).
  add_sn(10.0);
  add_sn(30.0);
  PlayerState p = make_player(0.0);
  fog_->select_supernode(p, fleet_, catalog_, 1, false, rng_);
  fleet_[p.serving.index].failed = true;
  fleet_[p.serving.index].served = 0;
  p.serving = ServingRef{};
  const auto outcome = fog_->migrate(p, fleet_, catalog_, 1, false, rng_);
  EXPECT_GT(outcome.join_latency_ms, 400.0);
  EXPECT_LT(outcome.join_latency_ms, 3000.0);
}

TEST_F(FogManagerTest, SupernodeJoinLatencyIsOneCloudRoundTrip) {
  add_sn(100.0);
  const double join = fog_->supernode_join_latency_ms(fleet_[0]);
  const double rtt = latency_.rtt_ms(fleet_[0].endpoint, cloud_->datacenter(0).endpoint);
  EXPECT_NEAR(join, rtt + FogManagerConfig{}.connect_setup_ms, 1e-9);
}

TEST_F(FogManagerTest, ConfigValidation) {
  FogManagerConfig cfg;
  cfg.candidate_count = 0;
  EXPECT_THROW(FogManager(cfg, *cloud_, latency_, rec_), ConfigError);
}

}  // namespace
}  // namespace cloudfog::core

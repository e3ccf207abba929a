#include "oracle/join_session.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "util/require.hpp"

namespace cloudfog::oracle {
namespace {

/// Long enough for every message, timeout and retry of a run to fire.
constexpr sim::SimTime kDrainS = 3600.0;

class JoinTest : public ::testing::Test {
 protected:
  JoinTest()
      : latency_(net::LatencyModelConfig{}),
        network_(sim_, latency_),
        directory_(network_, net::make_infrastructure_endpoint({2000.0, 0.0})) {}

  SupernodeAgent& add_sn(double x, int capacity = 5) {
    supernodes_.push_back(std::make_unique<SupernodeAgent>(
        network_, net::Endpoint{{x, 0.0}, 2.0}, capacity));
    directory_.admit(supernodes_.back()->address(), net::GeoPoint{x, 0.0});
    return *supernodes_.back();
  }

  std::optional<JoinResult> run_join(PlayerAgent& player, JoinConfig cfg = {},
                                     JoinSession::Ranker ranker = nullptr) {
    std::optional<JoinResult> result;
    player.join(directory_.address(), cfg, std::move(ranker),
                [&result](const JoinResult& r) { result = r; }, util::Rng(9));
    sim_.run_until(sim_.now() + kDrainS);
    return result;
  }

  sim::Simulator sim_;
  obs::Recorder rec_;
  net::LatencyModel latency_;
  MessageNetwork network_;
  CloudDirectoryAgent directory_;
  std::vector<std::unique_ptr<SupernodeAgent>> supernodes_;
};

TEST_F(JoinTest, ConnectsToNearbySupernode) {
  auto& sn = add_sn(10.0);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->fog_connected);
  EXPECT_EQ(result->supernode, sn.address());
  EXPECT_EQ(sn.served(), 1);
  EXPECT_EQ(result->probes, 1);
  EXPECT_EQ(result->capacity_asks, 1);
  EXPECT_GT(result->join_latency_ms, 0.0);
}

TEST_F(JoinTest, MeasuredLatencyCoversFourExchanges) {
  // candidate req/reply (player↔cloud) + probe + ask + connect
  // (player↔supernode): at least one cloud RTT plus three supernode RTTs.
  auto& sn = add_sn(10.0);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player);
  ASSERT_TRUE(result.has_value());
  const double cloud_rtt = latency_.rtt_ms(network_.endpoint_of(player.address()),
                                           network_.endpoint_of(directory_.address()));
  const double sn_rtt = latency_.rtt_ms(network_.endpoint_of(player.address()),
                                        network_.endpoint_of(sn.address()));
  EXPECT_GE(result->join_latency_ms, cloud_rtt + 3.0 * sn_rtt - 1e-6);
  EXPECT_LT(result->join_latency_ms, cloud_rtt + 3.0 * sn_rtt + 100.0);
}

TEST_F(JoinTest, FallsBackWhenNoSupernodesExist) {
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->fog_connected);
  EXPECT_EQ(result->candidates_received, 0);
}

TEST_F(JoinTest, LmaxFiltersDistantSupernodes) {
  add_sn(4000.0);  // one-way ≈ 70 ms
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  JoinConfig cfg;
  cfg.lmax_ms = 30.0;
  const auto result = run_join(player, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->fog_connected);
  EXPECT_EQ(result->probes, 1);       // it was probed…
  EXPECT_EQ(result->capacity_asks, 0);  // …but never asked
}

TEST_F(JoinTest, SequentialClaimMovesPastFullSupernode) {
  auto& full = add_sn(10.0, /*capacity=*/0);
  auto& open = add_sn(12.0, /*capacity=*/3);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  // Rank the full one first so the claim path must recover from a deny.
  const auto result = run_join(player, {}, [&full](Address a) {
    return a == full.address() ? 1.0 : 0.0;
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->fog_connected);
  EXPECT_EQ(result->supernode, open.address());
  EXPECT_EQ(result->capacity_asks, 2);
  EXPECT_EQ(full.served(), 0);
}

TEST_F(JoinTest, RankerOrdersClaims) {
  auto& a = add_sn(10.0);
  auto& b = add_sn(12.0);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player, {}, [&b](Address addr) {
    return addr == b.address() ? 1.0 : 0.0;
  });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->supernode, b.address());
  EXPECT_EQ(a.served(), 0);
}

TEST_F(JoinTest, DeadSupernodeTimesOutAndClaimMovesOn) {
  auto& dead = add_sn(10.0);
  auto& alive = add_sn(12.0);
  dead.fail();  // the directory still believes it is accepting
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  JoinConfig cfg;
  cfg.stage = fault::RetryPolicy::single_attempt(300.0);
  const auto result = run_join(player, cfg);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->fog_connected);
  EXPECT_EQ(result->supernode, alive.address());
  // The dead supernode cost a probe timeout, visible in the latency.
  EXPECT_GE(result->join_latency_ms, cfg.stage.attempt_timeout_ms);
}

TEST_F(JoinTest, ConcurrentJoinersShareSeatsWithoutOverflow) {
  auto& sn = add_sn(10.0, /*capacity=*/2);
  add_sn(500.0, /*capacity=*/10);
  std::vector<std::unique_ptr<PlayerAgent>> players;
  int fog = 0;
  for (int i = 0; i < 5; ++i) {
    players.push_back(std::make_unique<PlayerAgent>(
        sim_, network_, net::Endpoint{{static_cast<double>(i), 0.0}, 5.0}, rec_));
    players.back()->join(directory_.address(), JoinConfig{}, nullptr,
                         [&fog](const JoinResult& r) {
                           if (r.fog_connected) ++fog;
                         },
                         util::Rng(100 + static_cast<std::uint64_t>(i)));
  }
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_EQ(fog, 5);               // everyone found a seat somewhere
  EXPECT_LE(sn.served(), 2);       // never over capacity
}

TEST_F(JoinTest, DoneCallbackFiresExactlyOnce) {
  add_sn(10.0);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  int calls = 0;
  player.join(directory_.address(), JoinConfig{}, nullptr,
              [&calls](const JoinResult&) { ++calls; }, util::Rng(9));
  sim_.run_until(sim_.now() + kDrainS);
  sim_.run_until(sim_.now() + 10.0);  // timeouts must not re-fire it
  EXPECT_EQ(calls, 1);
}

TEST(JoinLossy, TimeoutsCarryTheProtocolThroughPacketLoss) {
  // 10 % control-plane loss: probes, asks or replies can vanish at any
  // stage. The session must still terminate — with a connection or a
  // clean cloud fallback — because every stage is timeout-guarded.
  sim::Simulator sim;
  obs::Recorder rec;
  const net::LatencyModel latency{net::LatencyModelConfig{}};
  NetworkConfig ncfg;
  ncfg.loss_probability = 0.10;
  MessageNetwork network(sim, latency, ncfg, util::Rng(77));
  CloudDirectoryAgent directory(network, net::make_infrastructure_endpoint({2000.0, 0.0}));
  std::vector<std::unique_ptr<SupernodeAgent>> sns;
  for (int i = 0; i < 6; ++i) {
    sns.push_back(std::make_unique<SupernodeAgent>(
        network, net::Endpoint{{10.0 + 5.0 * i, 0.0}, 2.0}, 8));
    directory.admit(sns.back()->address(), net::GeoPoint{10.0 + 5.0 * i, 0.0});
  }
  int completions = 0;
  int fog = 0;
  std::vector<std::unique_ptr<PlayerAgent>> players;
  for (int i = 0; i < 30; ++i) {
    players.push_back(std::make_unique<PlayerAgent>(
        sim, network, net::Endpoint{{static_cast<double>(i % 7), 0.0}, 5.0}, rec));
    JoinConfig cfg;
    cfg.stage = fault::RetryPolicy::single_attempt(400.0);
    players.back()->join(directory.address(), cfg, nullptr,
                         [&](const JoinResult& r) {
                           ++completions;
                           if (r.fog_connected) ++fog;
                         },
                         util::Rng(500 + static_cast<std::uint64_t>(i)));
  }
  sim.run_until(sim.now() + kDrainS);
  EXPECT_EQ(completions, 30);  // every session terminated
  EXPECT_GT(fog, 18);          // and most still found a seat
  // Granted-but-lost-connect seats may leak in a lossy network; total
  // seats taken never exceeds what was granted.
  int seats = 0;
  for (const auto& sn : sns) seats += sn->served();
  EXPECT_LE(seats, 6 * 8);
}

TEST_F(JoinTest, DirectoryRegistrationViaMessages) {
  // A supernode that registers itself (rather than being admitted
  // directly) becomes discoverable.
  SupernodeAgent sn(network_, net::Endpoint{{15.0, 0.0}, 2.0}, 4);
  Message reg;
  reg.src = sn.address();
  reg.dst = directory_.address();
  reg.kind = MessageKind::kRegister;
  network_.send(reg);
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_EQ(directory_.table_size(), 1u);

  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->fog_connected);
}

TEST_F(JoinTest, DirectoryLoadEstimateFiltersCandidates) {
  auto& near_sn = add_sn(10.0);
  auto& far_sn = add_sn(50.0);
  // The directory believes the near supernode is full (whether or not it
  // actually is): it stops advertising it.
  directory_.update_load_estimate(near_sn.address(), /*accepting=*/false);
  PlayerAgent player(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(player);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->supernode, far_sn.address());
  EXPECT_EQ(result->candidates_received, 1);
  EXPECT_EQ(near_sn.served(), 0);
}

TEST_F(JoinTest, StaleDirectoryLoadEstimateIsAbsorbedByClaims) {
  auto& sn = add_sn(10.0, /*capacity=*/1);
  add_sn(20.0, /*capacity=*/5);
  // Fill the first seat out of band; the directory still believes it free.
  Message ask;
  PlayerAgent first(sim_, network_, net::Endpoint{{1.0, 0.0}, 5.0}, rec_);
  ask.src = first.address();
  ask.dst = sn.address();
  ask.kind = MessageKind::kCapacityAsk;
  network_.send(ask);
  sim_.run_until(sim_.now() + kDrainS);
  ASSERT_EQ(sn.served(), 1);

  PlayerAgent late(sim_, network_, net::Endpoint{{0.0, 0.0}, 5.0}, rec_);
  const auto result = run_join(late);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->fog_connected);
  EXPECT_NE(result->supernode, sn.address());
}

}  // namespace
}  // namespace cloudfog::oracle

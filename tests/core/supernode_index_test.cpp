// Grid-vs-linear candidate discovery equality (DESIGN.md §10): the
// geo-grid index must return element-for-element what the reference
// linear scan returns — same indices, same order — across randomized
// fleets, capacity/deployment churn and fleet swaps, because the two
// paths are interchangeable behind Cloud::candidate_supernodes_into and the
// determinism gate compares runs that may differ only in mode. The index
// keeps its own accepting counts, so every churn step here reports each
// node through Cloud::note_seat_change, as the System's seat paths do.
// The join path's per-player nearby lists (Cloud::candidate_supernodes_for)
// are held to the same linear answer, across churn, saturation, index
// rebuilds and the 16-bit fleet bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/cloud.hpp"
#include "core/testbed.hpp"
#include "net/ip_locator.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudfog;

class SupernodeIndexProperty : public ::testing::Test {
 protected:
  SupernodeIndexProperty() : testbed_(make_config(), 4242) {}

  static core::TestbedConfig make_config() {
    auto cfg = core::TestbedConfig::peersim(2000);
    cfg.supernode_capable_fraction = 1.0;  // allow fleets up to 2000
    return cfg;
  }

  core::Cloud make_cloud() const {
    return core::Cloud(testbed_.make_datacenters(), testbed_.latency(), net::IpLocator{});
  }

  /// Registers `fleet` and applies one round of random churn.
  void register_and_churn(core::Cloud& cloud, std::vector<core::SupernodeState>& fleet,
                          util::Rng& rng) const {
    for (auto& sn : fleet) cloud.register_supernode(sn, rng);
    churn(cloud, fleet, rng);
  }

  /// Random deployment / failure / load churn, each node's change reported
  /// through the seat-change hook.
  static void churn(const core::Cloud& cloud, std::vector<core::SupernodeState>& fleet,
                    util::Rng& rng) {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      auto& sn = fleet[i];
      sn.deployed = rng.chance(0.7);
      sn.failed = rng.chance(0.1);
      sn.served = static_cast<int>(rng.uniform_int(0, sn.capacity));
      cloud.note_seat_change(fleet, i);
    }
  }

  /// Deploys every node of `fleet` with no spare seat.
  static void saturate(std::vector<core::SupernodeState>& fleet) {
    for (auto& sn : fleet) {
      sn.deployed = true;
      sn.served = sn.capacity;
    }
  }

  /// Both modes over the same query; EXPECT element-for-element equality.
  void expect_modes_agree(core::Cloud& cloud, const std::vector<core::SupernodeState>& fleet,
                          const net::Endpoint& player, std::size_t count) {
    cloud.set_candidate_mode(core::CandidateMode::kGrid);
    cloud.candidate_supernodes_into(player, fleet, count, grid_);
    cloud.set_candidate_mode(core::CandidateMode::kLinear);
    cloud.candidate_supernodes_into(player, fleet, count, linear_);
    EXPECT_EQ(grid_, linear_);
  }

  /// The join path for `player` (its nearby list, then the grid) against
  /// the linear scan; the same PlayerState is reused across calls.
  void expect_list_agrees(core::Cloud& cloud, const std::vector<core::SupernodeState>& fleet,
                          core::PlayerState& player, std::size_t count) {
    cloud.set_candidate_mode(core::CandidateMode::kGrid);
    cloud.candidate_supernodes_for(player, fleet, count, grid_);
    cloud.candidate_supernodes_linear(player.info.endpoint, fleet, count, linear_);
    EXPECT_EQ(grid_, linear_) << "player " << player.info.id << ", count " << count;
  }

  /// PlayerStates for `n` testbed players (every 7th), lists not yet built.
  std::vector<core::PlayerState> make_players(std::size_t n) const {
    std::vector<core::PlayerState> players(n);
    for (std::size_t i = 0; i < n; ++i) players[i].info = testbed_.players()[i * 7];
    return players;
  }

  /// Deploys every node, fills every seat, then frees exactly `free` nodes
  /// chosen by `rng`, each reported through the seat-change hook.
  static void saturate_leaving(const core::Cloud& cloud,
                               std::vector<core::SupernodeState>& fleet, std::size_t free,
                               util::Rng& rng) {
    saturate(fleet);
    std::vector<std::size_t> order(fleet.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    for (std::size_t k = 0; k < free; ++k) fleet[order[k]].served = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) cloud.note_seat_change(fleet, i);
  }

  core::Testbed testbed_;
  std::vector<std::size_t> grid_;
  std::vector<std::size_t> linear_;
};

TEST_F(SupernodeIndexProperty, MatchesLinearAcrossRandomFleetsAndChurn) {
  util::Rng rng(99);
  const std::size_t fleet_sizes[] = {1, 7, 60, 600, 2000};
  for (const std::size_t size : fleet_sizes) {
    core::Cloud cloud = make_cloud();
    auto fleet = testbed_.make_supernode_fleet(size);
    util::Rng reg_rng(rng.next_u64());
    register_and_churn(cloud, fleet, reg_rng);
    for (int round = 0; round < 4; ++round) {
      for (int q = 0; q < 32; ++q) {
        const auto& player = testbed_.players()[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(testbed_.players().size()) - 1))];
        const std::size_t count = static_cast<std::size_t>(rng.uniform_int(1, 13));
        expect_modes_agree(cloud, fleet, player.endpoint, count);
      }
      // Capacity / deployment / failure churn needs no index rebuild, only
      // the seat-change hook per node.
      churn(cloud, fleet, rng);
      EXPECT_TRUE(cloud.seat_index_consistent(fleet));
    }
  }
}

TEST_F(SupernodeIndexProperty, EmptyFleetReturnsNothing) {
  core::Cloud cloud = make_cloud();
  std::vector<core::SupernodeState> fleet;
  expect_modes_agree(cloud, fleet, testbed_.players()[0].endpoint, 8);
  EXPECT_TRUE(grid_.empty());
}

TEST_F(SupernodeIndexProperty, FullySaturatedFleetReturnsNothing) {
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(300);
  util::Rng rng(5);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  saturate(fleet);  // no spare seats anywhere
  expect_modes_agree(cloud, fleet, testbed_.players()[1].endpoint, 8);
  EXPECT_TRUE(grid_.empty());
}

TEST_F(SupernodeIndexProperty, CountBeyondAcceptingReturnsAllAccepting) {
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(50);
  util::Rng rng(6);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  std::size_t accepting = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet[i].deployed = (i % 2) == 0;  // half the fleet accepts
    if (fleet[i].accepting()) ++accepting;
  }
  expect_modes_agree(cloud, fleet, testbed_.players()[2].endpoint, fleet.size() * 3);
  EXPECT_EQ(grid_.size(), accepting);
}

TEST_F(SupernodeIndexProperty, RebuildsWhenFleetIdentityChanges) {
  core::Cloud cloud = make_cloud();
  util::Rng rng(12);
  // Alternate between two different fleets behind the same cloud — the
  // index must track whichever vector was queried last.
  auto fleet_a = testbed_.make_supernode_fleet(200);
  register_and_churn(cloud, fleet_a, rng);
  auto fleet_b = testbed_.make_supernode_fleet(120);
  register_and_churn(cloud, fleet_b, rng);
  for (int round = 0; round < 3; ++round) {
    expect_modes_agree(cloud, fleet_a, testbed_.players()[round].endpoint, 8);
    expect_modes_agree(cloud, fleet_b, testbed_.players()[round + 8].endpoint, 8);
  }
  // A shrunk fleet behind the same vector is a new fleet; queries must
  // still agree.
  fleet_b.pop_back();
  expect_modes_agree(cloud, fleet_b, testbed_.players()[30].endpoint, 8);
}

TEST_F(SupernodeIndexProperty, FindsFarCornerAcceptorsInSaturatedFleet) {
  // Only 1-3 nodes in the far corner of the fleet accept while the query
  // comes from the opposite corner and asks for 8: the scan must cross the
  // whole box of full cells and stop once it holds every acceptor.
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(600);
  util::Rng rng(21);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  saturate(fleet);

  std::vector<std::size_t> by_corner(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) by_corner[i] = i;
  const auto corner_key = [&fleet](std::size_t i) {
    return fleet[i].endpoint.position.x_km + fleet[i].endpoint.position.y_km;
  };
  std::sort(by_corner.begin(), by_corner.end(),
            [&](std::size_t a, std::size_t b) { return corner_key(a) > corner_key(b); });
  std::size_t from = 0;
  for (std::size_t i = 1; i < testbed_.players().size(); ++i) {
    const auto& p = testbed_.players()[i].endpoint.position;
    const auto& best = testbed_.players()[from].endpoint.position;
    if (p.x_km + p.y_km < best.x_km + best.y_km) from = i;
  }
  const net::Endpoint& player = testbed_.players()[from].endpoint;

  expect_modes_agree(cloud, fleet, player, 8);  // builds the index: nothing accepts
  EXPECT_TRUE(grid_.empty());
  for (std::size_t freed = 1; freed <= 3; ++freed) {
    const std::size_t idx = by_corner[freed - 1];
    --fleet[idx].served;
    cloud.note_seat_change(fleet, idx);
    expect_modes_agree(cloud, fleet, player, 8);
    EXPECT_EQ(grid_.size(), freed);
    EXPECT_TRUE(cloud.seat_index_consistent(fleet));
  }
}

TEST_F(SupernodeIndexProperty, SeatChangeForAnotherFleetIsANoOp) {
  core::Cloud cloud = make_cloud();
  util::Rng rng(31);
  auto fleet_a = testbed_.make_supernode_fleet(150);
  register_and_churn(cloud, fleet_a, rng);
  auto fleet_b = testbed_.make_supernode_fleet(400);
  register_and_churn(cloud, fleet_b, rng);
  expect_modes_agree(cloud, fleet_a, testbed_.players()[3].endpoint, 8);

  // The index is built for fleet_a; reporting fleet_b's nodes — including
  // indices past fleet_a's end — must leave it untouched.
  for (std::size_t i = 0; i < fleet_b.size(); ++i) {
    fleet_b[i].deployed = true;
    fleet_b[i].failed = false;
    fleet_b[i].served = 0;
    cloud.note_seat_change(fleet_b, i);
  }
  EXPECT_TRUE(cloud.seat_index_consistent(fleet_a));
  expect_modes_agree(cloud, fleet_a, testbed_.players()[4].endpoint, 8);
  expect_modes_agree(cloud, fleet_b, testbed_.players()[5].endpoint, 8);

  // A registration bumps the epoch: a seat change reported in between is
  // dropped, and the next query rebuilds from the fleet.
  expect_modes_agree(cloud, fleet_a, testbed_.players()[6].endpoint, 8);
  core::SupernodeState extra = fleet_a.front();
  cloud.register_supernode(extra, rng);
  fleet_a[0].served = fleet_a[0].capacity;
  cloud.note_seat_change(fleet_a, 0);
  expect_modes_agree(cloud, fleet_a, testbed_.players()[7].endpoint, 8);
  EXPECT_TRUE(cloud.seat_index_consistent(fleet_a));
}

TEST_F(SupernodeIndexProperty, MissedSeatChangeFailsTheConsistencyCheck) {
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(100);
  util::Rng rng(41);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  for (auto& sn : fleet) sn.deployed = true;
  expect_modes_agree(cloud, fleet, testbed_.players()[0].endpoint, 8);
  ASSERT_TRUE(cloud.seat_index_consistent(fleet));

  // Fill node 0 behind the index's back: the check must catch it.
  fleet[0].served = fleet[0].capacity;
  EXPECT_FALSE(cloud.seat_index_consistent(fleet));
  // Reporting it restores consistency.
  cloud.note_seat_change(fleet, 0);
  EXPECT_TRUE(cloud.seat_index_consistent(fleet));
}

TEST_F(SupernodeIndexProperty, NearbyListMatchesLinearAcrossChurnAndSaturation) {
  util::Rng rng(77);
  // Below, at and above the list's 16 entries, up to past the default 600.
  const std::size_t fleet_sizes[] = {1, 7, 15, 16, 17, 60, 600, 2000};
  const std::size_t counts[] = {1, 8, 16, 32};
  for (const std::size_t size : fleet_sizes) {
    core::Cloud cloud = make_cloud();
    auto fleet = testbed_.make_supernode_fleet(size);
    util::Rng reg_rng(rng.next_u64());
    register_and_churn(cloud, fleet, reg_rng);
    auto players = make_players(24);
    for (int round = 0; round < 6; ++round) {
      for (core::PlayerState& player : players) {
        for (const std::size_t count : counts) expect_list_agrees(cloud, fleet, player, count);
      }
      // Alternate light churn with a nearly full fleet, so lists answer
      // alone, fall back to the ring walk, and fall back to the set scan.
      if (round % 2 == 0) {
        churn(cloud, fleet, rng);
      } else {
        saturate_leaving(cloud, fleet, static_cast<std::size_t>(rng.uniform_int(
                                           0, static_cast<std::int64_t>(size))) / 4,
                         rng);
      }
      EXPECT_TRUE(cloud.seat_index_consistent(fleet));
    }
  }
}

TEST_F(SupernodeIndexProperty, SaturatedScanBoundaryMatchesLinear) {
  // kSaturatedScan accepting nodes take the set scan, one more the ring
  // walk; both the endpoint path and the list path must equal linear.
  ASSERT_EQ(core::SupernodeIndex::kSaturatedScan, 64u);
  util::Rng rng(64);
  core::Cloud cloud = make_cloud();
  auto fleet = testbed_.make_supernode_fleet(600);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  auto players = make_players(40);
  for (const std::size_t free : {63u, 64u, 65u, 66u}) {
    saturate_leaving(cloud, fleet, free, rng);
    ASSERT_TRUE(cloud.seat_index_consistent(fleet));
    for (core::PlayerState& player : players) {
      for (const std::size_t count : {1u, 8u, 16u, 32u}) {
        expect_modes_agree(cloud, fleet, player.info.endpoint, count);
        expect_list_agrees(cloud, fleet, player, count);
      }
    }
  }
}

TEST_F(SupernodeIndexProperty, NearbyListIsRebuiltAfterRemovalAndFleetSwitch) {
  core::Cloud cloud = make_cloud();
  util::Rng rng(88);
  auto fleet_a = testbed_.make_supernode_fleet(600);
  register_and_churn(cloud, fleet_a, rng);
  auto fleet_b = testbed_.make_supernode_fleet(90);
  register_and_churn(cloud, fleet_b, rng);
  auto players = make_players(16);

  for (core::PlayerState& player : players) expect_list_agrees(cloud, fleet_a, player, 8);
  const std::uint64_t first_build = players[0].nearby.build;
  ASSERT_NE(first_build, 0u);

  // Removing a node rebuilds the index: each list must be rebuilt before
  // use. Player 0's nearest node goes, the last node taking its index, so
  // a stale list would name the wrong node.
  const std::size_t gone = players[0].nearby.nodes[0];
  std::swap(fleet_a[gone], fleet_a.back());
  fleet_a.pop_back();
  for (core::PlayerState& player : players) expect_list_agrees(cloud, fleet_a, player, 8);
  EXPECT_NE(players[0].nearby.build, first_build);

  // Another fleet vector behind the same cloud, then back again.
  for (int round = 0; round < 2; ++round) {
    for (core::PlayerState& player : players) {
      expect_list_agrees(cloud, fleet_b, player, 8);
      EXPECT_LE(player.nearby.size, fleet_b.size());
      for (std::size_t k = 0; k < player.nearby.size; ++k) {
        EXPECT_LT(player.nearby.nodes[k], fleet_b.size());
      }
    }
    for (core::PlayerState& player : players) expect_list_agrees(cloud, fleet_a, player, 16);
    churn(cloud, fleet_a, rng);
  }
}

TEST_F(SupernodeIndexProperty, NearbyListCoversSixteenBitFleetsOnly) {
  // 65,536 nodes: one past what 16-bit list entries can name. Copies of a
  // 2000-node fleet, each copy geolocated with fresh noise, except that
  // the 16 nodes just below index 65,535 sit together far off the plane.
  constexpr std::size_t kMax = core::Cloud::kMaxNearbyFleet;
  constexpr std::size_t kFar = core::NearbySupernodes::kCapacity;
  const net::GeoPoint far_off{-3000.0, -3000.0};
  const auto base = testbed_.make_supernode_fleet(2000);
  std::vector<core::SupernodeState> fleet;
  fleet.reserve(kMax + 1);
  while (fleet.size() <= kMax) {
    core::SupernodeState sn = base[fleet.size() % base.size()];
    sn.id = fleet.size();
    sn.deployed = true;
    if (fleet.size() >= kMax - kFar && fleet.size() < kMax) sn.endpoint.position = far_off;
    fleet.push_back(sn);
  }
  core::Cloud cloud = make_cloud();
  util::Rng rng(65536);
  for (auto& sn : fleet) cloud.register_supernode(sn, rng);
  auto players = make_players(4);
  players[3].info.endpoint.position = far_off;

  // Above the bound the list is bypassed and never built.
  for (core::PlayerState& player : players) {
    expect_list_agrees(cloud, fleet, player, 8);
    EXPECT_EQ(player.nearby.build, 0u);
  }
  // At the bound it is used; the far player's list names exactly the far
  // nodes, the last of them index 65,534.
  fleet.pop_back();
  ASSERT_EQ(fleet.size(), kMax);
  for (core::PlayerState& player : players) {
    expect_list_agrees(cloud, fleet, player, 8);
    EXPECT_NE(player.nearby.build, 0u);
    EXPECT_EQ(player.nearby.size, kFar);
  }
  std::vector<std::size_t> far_list(players[3].nearby.nodes.begin(),
                                    players[3].nearby.nodes.end());
  std::sort(far_list.begin(), far_list.end());
  EXPECT_EQ(far_list.front(), kMax - kFar);
  EXPECT_EQ(far_list.back(), kMax - 1);
  saturate_leaving(cloud, fleet, 40, rng);
  for (core::PlayerState& player : players) expect_list_agrees(cloud, fleet, player, 8);
}

}  // namespace

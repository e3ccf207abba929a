// Property tests: invariants that must hold for EVERY architecture arm,
// workload mode and strategy combination, checked at every subcycle of a
// multi-day run. These are the guard rails under the figure harness —
// if an experiment config breaks accounting, it fails here first.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"

namespace cloudfog::core {
namespace {

const Testbed& property_testbed() {
  static const Testbed tb(TestbedConfig::peersim(800), 777);
  return tb;
}

struct SystemCase {
  std::string name;
  Architecture architecture;
  StrategyToggles strategies;
  WorkloadMode workload;
  std::size_t fixed_deployment;
};

// Without this gtest prints the raw object bytes, which include the name's
// heap pointer, so the listed test names would change on every run.
void PrintTo(const SystemCase& c, std::ostream* os) { *os << c.name; }

class SystemInvariants : public ::testing::TestWithParam<SystemCase> {};

/// `listed` holds copies of four players, kept across calls so their
/// nearby lists live as long as the System's own do (filled on first use).
void check_invariants(const System& sys, std::vector<PlayerState>& listed) {
  // 1. Supernode seat accounting: Σ served == fog-attached online players,
  //    and no supernode exceeds its capacity or serves while undeployed.
  std::size_t fog_players = 0;
  std::size_t cdn_players = 0;
  for (const auto& p : sys.players()) {
    if (!p.online) {
      ASSERT_FALSE(p.session.has_value());
      continue;
    }
    ASSERT_TRUE(p.serving.attached());
    ASSERT_TRUE(p.session.has_value());
    switch (p.serving.kind) {
      case ServingKind::kSupernode: {
        ASSERT_LT(p.serving.index, sys.fleet().size());
        const auto& sn = sys.fleet()[p.serving.index];
        ASSERT_TRUE(sn.deployed);
        ASSERT_FALSE(sn.failed);
        ++fog_players;
        break;
      }
      case ServingKind::kCdn:
        ASSERT_LT(p.serving.index, sys.cdn_servers().size());
        ++cdn_players;
        break;
      case ServingKind::kCloud:
        ASSERT_LT(p.serving.index, sys.cloud().datacenter_count());
        break;
      case ServingKind::kNone:
        FAIL() << "online player with no serving entity";
    }
    // 2. Sessions stream within the game's quality budget.
    const auto& game = sys.players()[p.info.id].session->game_info();
    ASSERT_LE(p.session->current_bitrate_kbps(),
              property_testbed().catalog().ladder()
                  .at_level(game.default_quality_level).bitrate_kbps + 1e-9);
  }
  std::size_t seats = 0;
  for (const auto& sn : sys.fleet()) {
    ASSERT_GE(sn.served, 0);
    ASSERT_LE(sn.served, sn.capacity);
    seats += static_cast<std::size_t>(sn.served);
  }
  ASSERT_EQ(seats, fog_players);
  std::size_t cdn_seats = 0;
  for (const auto& edge : sys.cdn_servers()) {
    ASSERT_GE(edge.served, 0);
    ASSERT_LE(edge.served, edge.capacity);
    cdn_seats += static_cast<std::size_t>(edge.served);
  }
  ASSERT_EQ(cdn_seats, cdn_players);

  // 5. Discovery's accepting counts saw every seat change (claim, release,
  //    crash, clear, deploy, withdrawal), and the grid and the join path's
  //    nearby lists answer exactly what the linear scan of the live fleet
  //    answers.
  const Cloud& cloud = sys.cloud();
  ASSERT_TRUE(cloud.seat_index_consistent(sys.fleet()));
  ASSERT_EQ(cloud.candidate_mode(), CandidateMode::kGrid);
  if (listed.empty()) {
    for (std::size_t k = 0; k < 4; ++k) {
      listed.push_back(sys.players()[k * sys.players().size() / 4]);
    }
  }
  std::vector<std::size_t> grid;
  std::vector<std::size_t> nearby;
  std::vector<std::size_t> linear;
  for (PlayerState& player : listed) {
    const auto& who = player.info.endpoint;
    cloud.candidate_supernodes_into(who, sys.fleet(), 8, grid);
    cloud.candidate_supernodes_for(player, sys.fleet(), 8, nearby);
    cloud.candidate_supernodes_linear(who, sys.fleet(), 8, linear);
    ASSERT_EQ(grid, linear);
    ASSERT_EQ(nearby, linear);
  }
}

// A crash on a node nobody streams from has no displacement loop to
// report it, so only the hook right after `failed = true` keeps discovery
// from offering the dead node. The precondition is asserted, so the test
// cannot pass with a busy victim.
TEST(SystemSeatIndex, CrashOfAnIdleNodeIsReportedToDiscovery) {
  constexpr std::size_t kVictim = 37;  // idle when the crash fires (asserted)
  SystemConfig cfg;
  cfg.supernode_count = 60;
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{1.0, 2.0};
  cfg.faults.enabled = true;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSupernodeCrash;
  spec.target = kVictim;
  spec.at_s = 3.0 * 3600.0 + 1.0;  // as day 1's subcycle 4 opens
  spec.duration_s = 2.0 * 3600.0;
  cfg.faults.extra_specs.push_back(spec);
  System sys(property_testbed(), cfg, 99);
  std::vector<PlayerState> listed;

  sys.begin_cycle(1);
  for (int sub = 1; sub <= 6; ++sub) {
    if (sub == 4) {
      const auto& victim = sys.fleet()[kVictim];
      ASSERT_EQ(victim.served, 0);
      ASSERT_TRUE(victim.accepting());
    }
    sys.run_subcycle(1, sub, true, false);
    if (sub == 4) {
      ASSERT_TRUE(sys.fleet()[kVictim].failed);
    }
    check_invariants(sys, listed);
  }
  ASSERT_FALSE(sys.fleet()[kVictim].failed);
}

TEST_P(SystemInvariants, HoldAtEverySubcycle) {
  const SystemCase& c = GetParam();
  SystemConfig cfg;
  cfg.architecture = c.architecture;
  cfg.strategies = c.strategies;
  cfg.workload = c.workload;
  cfg.fixed_deployment = c.fixed_deployment;
  cfg.supernode_count =
      std::min<std::size_t>(60, property_testbed().supernode_capable().size());
  cfg.cdn_server_count = 30;
  if (c.workload == WorkloadMode::kArrivalRates) {
    cfg.arrivals = ArrivalWorkload{10.0, 40.0};
  }
  // Fog arms take a mid-run burst: five wildcard crashes fire as day 2's
  // subcycle 21 opens and clear two hours later, as subcycle 23 opens.
  const bool fog = c.architecture == Architecture::kCloudFog;
  if (fog) {
    cfg.faults.enabled = true;
    for (std::size_t k = 0; k < 5; ++k) {
      fault::FaultSpec spec;
      spec.kind = fault::FaultKind::kSupernodeCrash;
      spec.at_s = 44.0 * 3600.0 + 1.0 + static_cast<double>(k) * 1e-3;
      spec.duration_s = 2.0 * 3600.0;
      cfg.faults.extra_specs.push_back(spec);
    }
  }
  System sys(property_testbed(), cfg, 1234);
  std::vector<PlayerState> listed;

  for (int day = 1; day <= 3; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= 24; ++sub) {
      const auto qos = sys.run_subcycle(day, sub, day == 1, sub >= 20);
      check_invariants(sys, listed);
      // 3. Aggregates stay on their scales.
      ASSERT_GE(qos.avg_continuity, 0.0);
      ASSERT_LE(qos.avg_continuity, 1.0);
      ASSERT_GE(qos.satisfied_fraction, 0.0);
      ASSERT_LE(qos.satisfied_fraction, 1.0);
      ASSERT_GE(qos.avg_mos, 1.0);
      ASSERT_LE(qos.avg_mos, 5.0);
      ASSERT_GE(qos.cloud_egress_mbps, 0.0);
      ASSERT_EQ(qos.online_sessions, qos.fog_served + qos.cloud_served + qos.cdn_served);
      if (qos.online_sessions > 0) {
        ASSERT_GT(qos.avg_response_latency_ms, 0.0);
      }
      // 4. The invariants above also held right after the crash and right
      //    after its clear (fog arms).
      if (fog && day == 2 && sub == 21) {
        ASSERT_EQ(sys.injector()->injected(), 5u);
      }
      if (fog && day == 2 && sub == 23) {
        ASSERT_EQ(sys.injector()->cleared(), 5u);
        for (const auto& sn : sys.fleet()) ASSERT_FALSE(sn.failed);
      }
    }
    sys.end_cycle(day);
    check_invariants(sys, listed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArms, SystemInvariants,
    ::testing::Values(
        SystemCase{"cloud_daily", Architecture::kCloudDirect, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"cdn_daily", Architecture::kCdn, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_basic_daily", Architecture::kCloudFog, StrategyToggles::none(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_advanced_daily", Architecture::kCloudFog, StrategyToggles::all(),
                   WorkloadMode::kDailySessions, 0},
        SystemCase{"fog_advanced_arrivals", Architecture::kCloudFog,
                   StrategyToggles::all(), WorkloadMode::kArrivalRates, 20},
        SystemCase{"fog_basic_arrivals_fixed_pool", Architecture::kCloudFog,
                   StrategyToggles::none(), WorkloadMode::kArrivalRates, 10}),
    [](const ::testing::TestParamInfo<SystemCase>& param_info) { return param_info.param.name; });

}  // namespace
}  // namespace cloudfog::core

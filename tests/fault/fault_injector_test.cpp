#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace cloudfog::fault {
namespace {

FaultSpec spec_of(FaultKind kind, double at_s, double duration_s,
                  std::size_t target = kAnyTarget, double magnitude = 0.0) {
  FaultSpec s;
  s.kind = kind;
  s.at_s = at_s;
  s.duration_s = duration_s;
  s.target = target;
  s.magnitude = magnitude;
  return s;
}

/// A hand-written schedule: a zero-rate plan whose extra specs are `specs`,
/// the way Fig. 9, the failure sweep and the scenario engine build theirs.
FaultPlan plan_of(std::vector<FaultSpec> specs) {
  FaultPlanConfig cfg;
  cfg.extra_specs = std::move(specs);
  return FaultPlan::generate(cfg);
}

/// Harness with no crash machinery: crash hooks abort the test if called.
struct Harness {
  sim::Simulator sim;
  FaultState state;
  obs::Recorder rec;
  FaultInjector injector;

  explicit Harness(std::vector<FaultSpec> specs, std::size_t supernodes = 8,
                   std::size_t regions = 4)
      : injector(sim, state, plan_of(std::move(specs)),
                 [](const FaultSpec&) -> std::size_t {
                   ADD_FAILURE() << "unexpected crash apply";
                   return kAnyTarget;
                 },
                 [](const FaultSpec&, std::size_t) {
                   ADD_FAILURE() << "unexpected crash clear";
                 },
                 rec) {
    state.resize(supernodes, regions);
    injector.arm();
  }
};

TEST(FaultInjector, SlowNodeAppliesAndClearsOnSchedule) {
  Harness h({spec_of(FaultKind::kSlowNode, 10.0, 20.0, /*target=*/3, /*magnitude=*/80.0)});

  h.sim.run_until(9.0);
  EXPECT_FALSE(h.state.any_active());
  EXPECT_DOUBLE_EQ(h.state.slow_ms(3), 0.0);

  h.sim.run_until(10.5);
  EXPECT_TRUE(h.state.any_active());
  EXPECT_DOUBLE_EQ(h.state.slow_ms(3), 80.0);
  EXPECT_EQ(h.injector.injected(), 1u);
  EXPECT_EQ(h.injector.active_count(), 1u);

  h.sim.run_until(31.0);
  EXPECT_FALSE(h.state.any_active());
  EXPECT_DOUBLE_EQ(h.state.slow_ms(3), 0.0);
  EXPECT_EQ(h.injector.cleared(), 1u);
  EXPECT_EQ(h.injector.active_count(), 0u);
}

TEST(FaultInjector, OverlappingLossBurstsComposeAndClearIndependently) {
  Harness h({spec_of(FaultKind::kPacketLossBurst, 0.0, 100.0, kAnyTarget, 0.2),
             spec_of(FaultKind::kPacketLossBurst, 50.0, 100.0, kAnyTarget, 0.5)});

  h.sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(h.state.channel().update_loss, 0.2);

  // Both active: independent drops compose as 1 - (1-a)(1-b).
  h.sim.run_until(60.0);
  EXPECT_DOUBLE_EQ(h.state.channel().update_loss, 1.0 - 0.8 * 0.5);
  EXPECT_EQ(h.injector.active_count(), 2u);

  // First burst ends at t=100; the rebuild must leave only the second.
  h.sim.run_until(110.0);
  EXPECT_DOUBLE_EQ(h.state.channel().update_loss, 0.5);
  EXPECT_TRUE(h.state.any_active());

  h.sim.run_until(200.0);
  EXPECT_DOUBLE_EQ(h.state.channel().update_loss, 0.0);
  EXPECT_FALSE(h.state.any_active());
  EXPECT_EQ(h.injector.injected(), 2u);
  EXPECT_EQ(h.injector.cleared(), 2u);
}

TEST(FaultInjector, BlackholeAndPartitionProjectThroughTheState) {
  Harness h({spec_of(FaultKind::kProbeBlackhole, 5.0, 50.0, /*target=*/2),
             [] {
               FaultSpec s = spec_of(FaultKind::kNetworkPartition, 5.0, 50.0, /*target=*/0);
               s.target_b = 1;
               return s;
             }()});
  h.state.set_supernode_region(6, 1);  // supernode 6 lives in region 1

  h.sim.run_until(6.0);
  EXPECT_TRUE(h.state.blackholed(2));
  EXPECT_FALSE(h.state.blackholed(3));
  EXPECT_TRUE(h.state.regions_partitioned(0, 1));
  EXPECT_TRUE(h.state.regions_partitioned(1, 0));  // symmetric
  EXPECT_FALSE(h.state.regions_partitioned(0, 2));
  EXPECT_TRUE(h.state.partitioned_from_supernode(/*player_region=*/0, /*supernode=*/6));

  h.sim.run_until(60.0);
  EXPECT_FALSE(h.state.blackholed(2));
  EXPECT_FALSE(h.state.regions_partitioned(0, 1));
}

TEST(FaultInjector, CrashHookResolvesWildcardAndClearNamesTheSameVictim) {
  sim::Simulator sim;
  FaultState state;
  state.resize(8, 2);
  std::vector<std::size_t> applied;
  std::vector<std::size_t> cleared;
  obs::Recorder rec;
  FaultInjector injector(
      sim, state,
      plan_of({spec_of(FaultKind::kSupernodeCrash, 10.0, 30.0)}),
      [&](const FaultSpec& spec) -> std::size_t {
        EXPECT_EQ(spec.target, kAnyTarget);
        applied.push_back(5);  // the hook picks the victim
        return 5;
      },
      [&](const FaultSpec&, std::size_t target) { cleared.push_back(target); }, rec);
  injector.arm();

  sim.run_until(20.0);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(injector.injected(), 1u);
  // Crashes are hook-owned: the projection flags faults in flight (the
  // data path uses this to price probes to dead nodes) but carries no
  // impairment entries of its own for the crash.
  EXPECT_TRUE(state.any_active());
  EXPECT_FALSE(state.blackholed(5));
  EXPECT_DOUBLE_EQ(state.slow_ms(5), 0.0);

  sim.run_until(50.0);
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_EQ(cleared[0], 5u);  // clear names the resolved victim, not kAnyTarget
  EXPECT_EQ(injector.cleared(), 1u);
}

TEST(FaultInjector, CrashWithNoVictimIsDroppedWithoutAClear) {
  sim::Simulator sim;
  FaultState state;
  state.resize(4, 2);
  int clears = 0;
  obs::Recorder rec;
  FaultInjector injector(
      sim, state, plan_of({spec_of(FaultKind::kSupernodeCrash, 1.0, 10.0)}),
      [](const FaultSpec&) -> std::size_t { return kAnyTarget; },  // nobody to kill
      [&](const FaultSpec&, std::size_t) { ++clears; }, rec);
  injector.arm();

  sim.run_until(100.0);
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_EQ(injector.cleared(), 0u);
  EXPECT_EQ(injector.active_count(), 0u);
  EXPECT_EQ(clears, 0);
}

}  // namespace
}  // namespace cloudfog::fault

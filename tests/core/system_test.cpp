#include "core/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/baselines.hpp"
#include "util/require.hpp"

namespace cloudfog::core {
namespace {

const Testbed& small_testbed() {
  static const Testbed tb(TestbedConfig::peersim(600), 11);
  return tb;
}

sim::CycleConfig short_run() {
  sim::CycleConfig cfg;
  cfg.total_cycles = 3;
  cfg.warmup_cycles = 1;
  return cfg;
}

TEST(System, CloudArchitectureServesEveryoneFromDatacenters) {
  System sys = make_cloud_system(small_testbed(), 1);
  const RunMetrics& m = sys.run(short_run());
  EXPECT_GT(m.online_sessions.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.fog_served_fraction.mean(), 0.0);
  EXPECT_GT(m.cloud_egress_mbps.mean(), 0.0);
}

TEST(System, CloudFogServesMostPlayersFromFog) {
  System sys = make_cloudfog_basic(small_testbed(), 2);
  const RunMetrics& m = sys.run(short_run());
  EXPECT_GT(m.fog_served_fraction.mean(), 0.5);
}

TEST(System, CdnArchitectureUsesEdgeServers) {
  System sys = make_cdn_system(small_testbed(), 3);
  sys.run(short_run());
  std::size_t total_served = 0;
  for (const auto& edge : sys.cdn_servers()) {
    EXPECT_GE(edge.served, 0);
    total_served += static_cast<std::size_t>(edge.served);
  }
  // Mid-run state is zeroed at day end, so check the metric instead.
  EXPECT_GT(sys.metrics().online_sessions.mean(), 0.0);
}

TEST(System, JoinLatenciesRecorded) {
  System sys = make_cloudfog_advanced(small_testbed(), 4);
  sys.run(short_run());
  EXPECT_GT(sys.metrics().player_join_latency_ms.count(), 0u);
  EXPECT_GT(sys.metrics().player_join_latency_ms.mean(), 0.0);
  // Player joins finish within a couple of seconds of protocol time.
  EXPECT_LT(sys.metrics().player_join_latency_ms.mean(), 3000.0);
}

// One schedule per check System::run makes before the first subcycle: a
// run with no measured cycle throws instead of printing an all-zero table.
struct BadSchedule {
  const char* name;
  sim::CycleConfig cycles;
};
void PrintTo(const BadSchedule& s, std::ostream* os) { *os << s.name; }

sim::CycleConfig with(void (*edit)(sim::CycleConfig&)) {
  sim::CycleConfig cfg = short_run();
  edit(cfg);
  return cfg;
}

class SystemRunRejects : public ::testing::TestWithParam<BadSchedule> {};

TEST_P(SystemRunRejects, BeforeAnySubcycleRuns) {
  System sys = make_cloudfog_basic(small_testbed(), 3);
  EXPECT_THROW(sys.run(GetParam().cycles), ConfigError);
  EXPECT_EQ(sys.collector().recorded_subcycles(), 0u);
  EXPECT_EQ(sys.metrics().online_sessions.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SystemRunRejects,
    ::testing::Values(
        BadSchedule{"WarmupOutlastsRun",
                    with([](sim::CycleConfig& c) { c.total_cycles = 2; c.warmup_cycles = 3; })},
        BadSchedule{"WarmupIsWholeRun",
                    with([](sim::CycleConfig& c) { c.total_cycles = 2; c.warmup_cycles = 2; })},
        BadSchedule{"NoCycles",
                    with([](sim::CycleConfig& c) { c.total_cycles = 0; c.warmup_cycles = 0; })},
        BadSchedule{"NegativeCyclesAndWarmup",
                    with([](sim::CycleConfig& c) { c.total_cycles = -1; c.warmup_cycles = -5; })},
        BadSchedule{"NegativeWarmup", with([](sim::CycleConfig& c) { c.warmup_cycles = -1; })}),
    [](const ::testing::TestParamInfo<BadSchedule>& param) { return std::string(param.param.name); });

// System::run is the one cycle loop: it must equal the day/hour walk a
// caller would write by hand — every day begun and ended once, its
// subcycles in order, the first `warmup_cycles` days flagged warm-up and
// the evening window flagged peak. The walk spells the paper's day (§4.1)
// in literals, 24 one-hour subcycles with the peak at 20–24, so a change
// to the shared constants or to the peak predicate shows here.
struct Schedule {
  const char* name;
  sim::CycleConfig cycles;
};
void PrintTo(const Schedule& s, std::ostream* os) { *os << s.name; }

class SystemRunSchedule : public ::testing::TestWithParam<Schedule> {};

// Arrivals follow the peak/off-peak rate, so the walk's peak flags show in
// the metrics (the daily-session workload ignores them).
System arrivals_system(std::uint64_t seed) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{1.0, 8.0};
  return System(small_testbed(), cfg, seed);
}

TEST_P(SystemRunSchedule, EqualsTheHandWrittenDayHourWalk) {
  const sim::CycleConfig& cycles = GetParam().cycles;
  System looped = arrivals_system(21);
  const RunMetrics& a = looped.run(cycles);

  System manual = arrivals_system(21);
  for (int day = 1; day <= cycles.total_cycles; ++day) {
    manual.begin_cycle(day);
    for (int sub = 1; sub <= 24; ++sub) {
      manual.run_subcycle(day, sub, day <= cycles.warmup_cycles, sub >= 20 && sub <= 24);
    }
    manual.end_cycle(day);
  }
  const RunMetrics& b = manual.metrics();

  const auto measured =
      static_cast<std::size_t>(cycles.total_cycles - cycles.warmup_cycles) * std::size_t{24};
  EXPECT_EQ(looped.collector().recorded_subcycles(), measured);
  EXPECT_EQ(manual.collector().recorded_subcycles(), measured);
  EXPECT_EQ(a.online_sessions.count(), b.online_sessions.count());
  EXPECT_DOUBLE_EQ(a.online_sessions.mean(), b.online_sessions.mean());
  EXPECT_DOUBLE_EQ(a.response_latency_ms.mean(), b.response_latency_ms.mean());
  EXPECT_DOUBLE_EQ(a.continuity.mean(), b.continuity.mean());
  EXPECT_DOUBLE_EQ(a.cloud_egress_mbps.mean(), b.cloud_egress_mbps.mean());
  EXPECT_EQ(a.player_join_latency_ms.count(), b.player_join_latency_ms.count());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SystemRunSchedule,
    ::testing::Values(
        Schedule{"ShortRun", short_run()},
        Schedule{"OneCycleNoWarmup",
                 with([](sim::CycleConfig& c) { c.total_cycles = 1; c.warmup_cycles = 0; })},
        Schedule{"WarmupLeavesOneCycle",
                 with([](sim::CycleConfig& c) { c.total_cycles = 3; c.warmup_cycles = 2; })}),
    [](const ::testing::TestParamInfo<Schedule>& param) { return std::string(param.param.name); });

// The step API takes 1-based days and subcycles inside the day; a call
// outside them throws before it touches the system or its clocks.
TEST(SystemStepRejects, DayZero) {
  System sys = make_cloudfog_basic(small_testbed(), 3);
  EXPECT_THROW(sys.begin_cycle(0), ConfigError);
  EXPECT_THROW(sys.run_subcycle(0, 1, false, false), ConfigError);
  EXPECT_THROW(sys.end_cycle(0), ConfigError);
  EXPECT_EQ(sys.collector().recorded_subcycles(), 0u);
}

TEST(SystemStepRejects, SubcycleZero) {
  System sys = make_cloudfog_basic(small_testbed(), 3);
  sys.begin_cycle(1);
  EXPECT_THROW(sys.run_subcycle(1, 0, false, false), ConfigError);
  EXPECT_EQ(sys.collector().recorded_subcycles(), 0u);
}

TEST(SystemStepRejects, SubcyclePastTheDay) {
  System sys = make_cloudfog_basic(small_testbed(), 3);
  sys.begin_cycle(1);
  EXPECT_THROW(sys.run_subcycle(1, 25, false, false), ConfigError);
  EXPECT_EQ(sys.collector().recorded_subcycles(), 0u);
}

// The trace clock and the fault clock both count one-hour subcycles from
// day 1, subcycle 1 at 0 s. Runs all of day 1 and day 2 up to `last_sub`.
void walk_into_day_two(System& sys, int last_sub) {
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 24; ++sub) sys.run_subcycle(1, sub, false, sub >= 20);
  sys.end_cycle(1);
  sys.begin_cycle(2);
  for (int sub = 1; sub <= last_sub; ++sub) sys.run_subcycle(2, sub, false, false);
}

TEST(SystemClock, SubcycleEventCarriesItsStartTime) {
  obs::Recorder rec;
  rec.set_enabled(true);
  System sys(small_testbed(), cloudfog_basic_config(small_testbed(), 30), 5, rec);
  walk_into_day_two(sys, 3);
  // Day 2's subcycle 3 opens 24 + 2 hours into the run; its summary event
  // is the last one the subcycle emits.
  const auto events = rec.trace_buffer().events();
  ASSERT_FALSE(events.empty());
  const obs::TraceEvent& last = events.back();
  ASSERT_EQ(last.kind, obs::EventKind::kSubcycle);
  EXPECT_EQ(last.subject, 2);
  EXPECT_EQ(last.object, 3);
  EXPECT_EQ(last.t, 26.0 * 3600.0);
}

TEST(SystemClock, CrashOneSecondIntoASubcycleFiresInThatSubcycle) {
  constexpr std::size_t kVictim = 3;
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.faults.enabled = true;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSupernodeCrash;
  spec.target = kVictim;
  spec.at_s = 26.0 * 3600.0 + 1.0;  // 1 s into day 2's subcycle 3
  spec.duration_s = 3600.0;
  cfg.faults.extra_specs.push_back(spec);
  System sys(small_testbed(), cfg, 5);
  walk_into_day_two(sys, 2);
  EXPECT_EQ(sys.injector()->injected(), 0u);
  EXPECT_FALSE(sys.fleet()[kVictim].failed);
  sys.run_subcycle(2, 3, false, false);
  EXPECT_EQ(sys.injector()->injected(), 1u);
  EXPECT_TRUE(sys.fleet()[kVictim].failed);
}

// With faults, a subcycle event's time can lag its hour's start
// (DESIGN.md §11.1), but it names its hour in its fields and its time
// stays inside that hour.
TEST(SystemClock, SubcycleEventNamesItsHourAfterAnInHourFault) {
  obs::Recorder rec;
  rec.set_enabled(true);
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.faults.enabled = true;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSlowNode;
  spec.target = 3;
  spec.at_s = 26.0 * 3600.0 + 1800.0;  // halfway into day 2's subcycle 3
  spec.duration_s = 600.0;
  cfg.faults.extra_specs.push_back(spec);
  System sys(small_testbed(), cfg, 5, rec);
  walk_into_day_two(sys, 3);
  const auto events = rec.trace_buffer().events();
  ASSERT_FALSE(events.empty());
  const obs::TraceEvent& last = events.back();
  ASSERT_EQ(last.kind, obs::EventKind::kSubcycle);
  EXPECT_EQ(last.subject, 2);
  EXPECT_EQ(last.object, 3);
  EXPECT_LT(last.t, 27.0 * 3600.0);
}

// A one-hour crash placed 1 s into a subcycle clears 1 s into the next
// one: run_subcycle advances the fault clock to the end of each subcycle.
TEST(SystemClock, OneHourCrashClearsInTheNextSubcycle) {
  constexpr std::size_t kVictim = 3;
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.faults.enabled = true;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSupernodeCrash;
  spec.target = kVictim;
  spec.at_s = 26.0 * 3600.0 + 1.0;  // 1 s into day 2's subcycle 3
  spec.duration_s = 3600.0;         // clears 1 s into subcycle 4
  cfg.faults.extra_specs.push_back(spec);
  System sys(small_testbed(), cfg, 5);
  walk_into_day_two(sys, 3);
  EXPECT_EQ(sys.injector()->cleared(), 0u);
  EXPECT_TRUE(sys.fleet()[kVictim].failed);
  sys.run_subcycle(2, 4, false, false);
  EXPECT_EQ(sys.injector()->cleared(), 1u);
  EXPECT_FALSE(sys.fleet()[kVictim].failed);
}

TEST(System, SupernodeSeatAccountingNeverLeaks) {
  System sys = make_cloudfog_basic(small_testbed(), 5);
  const auto cycles = short_run();
  for (int day = 1; day <= cycles.total_cycles; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= 24; ++sub) {
      sys.run_subcycle(day, sub, false, sub >= 20);
      std::size_t seats_used = 0;
      for (const auto& sn : sys.fleet()) {
        ASSERT_GE(sn.served, 0);
        seats_used += static_cast<std::size_t>(sn.served);
      }
      std::size_t fog_players = 0;
      for (const auto& p : sys.players()) {
        if (p.online && p.serving.kind == ServingKind::kSupernode) ++fog_players;
      }
      ASSERT_EQ(seats_used, fog_players);
    }
    sys.end_cycle(day);
  }
}

TEST(System, EndOfDayDetachesEveryone) {
  System sys = make_cloudfog_basic(small_testbed(), 6);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 24; ++sub) sys.run_subcycle(1, sub, false, sub >= 20);
  sys.end_cycle(1);
  for (const auto& p : sys.players()) {
    ASSERT_FALSE(p.online);
  }
  for (const auto& sn : sys.fleet()) {
    ASSERT_EQ(sn.served, 0);
  }
}

TEST(System, FailureInjectionMigratesEveryAffectedPlayer) {
  // Five wildcard crashes fire as subcycle 22 opens and clear two hours
  // later, as subcycle 24 opens.
  SystemConfig cfg = cloudfog_basic_config(small_testbed(),
                                           default_supernode_count(small_testbed()));
  cfg.faults.enabled = true;
  for (std::size_t k = 0; k < 5; ++k) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSupernodeCrash;
    spec.at_s = 21.0 * 3600.0 + 1.0 + static_cast<double>(k) * 1e-3;
    spec.duration_s = 2.0 * 3600.0;
    cfg.faults.extra_specs.push_back(spec);
  }
  System sys(small_testbed(), cfg, 7);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 22; ++sub) sys.run_subcycle(1, sub, true, sub >= 20);
  ASSERT_EQ(sys.injector()->injected(), 5u);
  const auto& latencies = sys.metrics().migration_latency_ms.samples();
  EXPECT_FALSE(latencies.empty());
  for (double ms : latencies) {
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 10000.0);
  }
  // Nobody is left attached to a failed supernode.
  for (const auto& p : sys.players()) {
    if (p.online && p.serving.kind == ServingKind::kSupernode) {
      ASSERT_FALSE(sys.fleet()[p.serving.index].failed);
    }
  }
  for (int sub = 23; sub <= 24; ++sub) sys.run_subcycle(1, sub, true, true);
  ASSERT_EQ(sys.injector()->cleared(), 5u);
  for (const auto& sn : sys.fleet()) ASSERT_FALSE(sn.failed);
}

TEST(System, ReputationRatingsAccumulateOverCycles) {
  System sys = make_cloudfog_advanced(small_testbed(), 8);
  sys.run(short_run());
  std::size_t rated_players = 0;
  for (const auto& p : sys.players()) {
    if (!p.reputation.rated_supernodes().empty()) ++rated_players;
  }
  EXPECT_GT(rated_players, 0u);
}

TEST(System, ThrottlingSetsWillingnessLevels) {
  System sys = make_cloudfog_basic(small_testbed(), 9);
  bool saw_80 = false;
  bool saw_50 = false;
  for (int day = 1; day <= 8; ++day) {
    sys.begin_cycle(day);
    for (const auto& sn : sys.fleet()) {
      if (sn.willingness == 0.8) saw_80 = true;
      if (sn.willingness == 0.5) saw_50 = true;
      ASSERT_TRUE(sn.willingness == 1.0 || sn.willingness == 0.8 || sn.willingness == 0.5);
    }
    sys.end_cycle(day);
  }
  EXPECT_TRUE(saw_80);
  EXPECT_TRUE(saw_50);
}

TEST(System, ArrivalWorkloadPopulatesAndDrains) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{30.0, 60.0};
  System sys(small_testbed(), cfg, 12);
  sys.begin_cycle(1);
  std::size_t peak_online = 0;
  for (int sub = 1; sub <= 24; ++sub) {
    sys.run_subcycle(1, sub, false, sub >= 20);
    std::size_t online = 0;
    for (const auto& p : sys.players()) {
      if (p.online) ++online;
    }
    peak_online = std::max(peak_online, online);
  }
  EXPECT_GT(peak_online, 50u);
}

TEST(System, FixedDeploymentLimitsPool) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 40);
  cfg.fixed_deployment = 10;
  const System sys(small_testbed(), cfg, 13);
  std::size_t deployed = 0;
  for (const auto& sn : sys.fleet()) {
    if (sn.deployed) ++deployed;
  }
  EXPECT_EQ(deployed, 10u);
}

TEST(System, ProvisioningNeverShrinksBelowBasePool) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 40);
  cfg.fixed_deployment = 15;
  cfg.strategies.provisioning = true;
  System sys(small_testbed(), cfg, 14);
  sys.run(short_run());
  std::size_t deployed = 0;
  for (const auto& sn : sys.fleet()) {
    if (sn.deployed) ++deployed;
  }
  EXPECT_GE(deployed, 15u);
}

TEST(System, ServerAssignmentMeasurable) {
  System sys = make_cloudfog_advanced(small_testbed(), 15);
  const ServerAssignmentCost cost = sys.measure_server_assignment();
  EXPECT_GT(cost.seconds, 0.0);
  EXPECT_GT(cost.swap_trials, 0);
  EXPECT_EQ(sys.metrics().server_assignment_seconds.count(), 1u);
}

TEST(System, SupernodeJoinsRecordedAtConstruction) {
  // Each fleet supernode registers once, before the run starts (Fig. 9).
  const System fog = make_cloudfog_basic(small_testbed(), 16);
  const util::SampleSet& joins = fog.metrics().supernode_join_latency_ms;
  ASSERT_FALSE(fog.fleet().empty());
  EXPECT_EQ(joins.count(), fog.fleet().size());
  for (double ms : joins.samples()) EXPECT_GT(ms, 0.0);
  const System cloud = make_cloud_system(small_testbed(), 16);
  EXPECT_EQ(cloud.metrics().supernode_join_latency_ms.count(), 0u);
  const System cdn = make_cdn_system(small_testbed(), 16);
  EXPECT_EQ(cdn.metrics().supernode_join_latency_ms.count(), 0u);
}

TEST(System, CrashRecoveryDoesNotRerecordASupernodeJoin) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(), 30);
  cfg.faults.enabled = true;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kSupernodeCrash;
  spec.target = 3;
  spec.at_s = 26.0 * 3600.0;  // day 2, subcycle 3, for one hour
  spec.duration_s = 3600.0;
  cfg.faults.extra_specs.push_back(spec);
  System sys(small_testbed(), cfg, 5);
  const RunMetrics& m = sys.run(short_run());
  ASSERT_EQ(sys.injector()->cleared(), 1u);
  EXPECT_EQ(m.supernode_join_latency_ms.count(), sys.fleet().size());
}

TEST(System, RunSummaryReportsSupernodeJoins) {
  const System sys = make_cloudfog_basic(small_testbed(), 16);
  const obs::RunSummary run = summarize_run(sys.metrics(), "fog", 0);
  const auto it = std::find_if(run.stats.begin(), run.stats.end(), [](const auto& s) {
    return s.name == "supernode_join_latency_ms";
  });
  ASSERT_NE(it, run.stats.end());
  EXPECT_EQ(it->count, sys.fleet().size());
  EXPECT_DOUBLE_EQ(it->mean, sys.metrics().supernode_join_latency_ms.mean());
}

TEST(System, MosReportedOnTheQoeScale) {
  System sys = make_cloudfog_advanced(small_testbed(), 17);
  const RunMetrics& m = sys.run(short_run());
  ASSERT_GT(m.mos.count(), 0u);
  EXPECT_GE(m.mos.min(), 1.0);
  EXPECT_LE(m.mos.max(), 5.0);
}

TEST(System, CloudFogScoresHigherQoeThanCloud) {
  System fog = make_cloudfog_advanced(small_testbed(), 18);
  System cloud = make_cloud_system(small_testbed(), 18);
  EXPECT_GT(fog.run(short_run()).mos.mean(), cloud.run(short_run()).mos.mean());
}

TEST(System, DeterministicForSameSeed) {
  System a = make_cloudfog_advanced(small_testbed(), 99);
  System b = make_cloudfog_advanced(small_testbed(), 99);
  const RunMetrics& ma = a.run(short_run());
  const RunMetrics& mb = b.run(short_run());
  EXPECT_DOUBLE_EQ(ma.response_latency_ms.mean(), mb.response_latency_ms.mean());
  EXPECT_DOUBLE_EQ(ma.continuity.mean(), mb.continuity.mean());
  EXPECT_DOUBLE_EQ(ma.cloud_egress_mbps.mean(), mb.cloud_egress_mbps.mean());
}

}  // namespace
}  // namespace cloudfog::core

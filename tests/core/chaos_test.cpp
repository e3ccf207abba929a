// §3.2.2 churn under injected faults: crash → detection → migration →
// re-selection, driven through the FaultInjector — the only way a
// supernode crashes.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "fault/fault_plan.hpp"

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

/// CloudFog/B with `crashes` wildcard crash faults firing at hour 9 of
/// day 1 (the clock advance of run_subcycle(1, 10)), never clearing within
/// the day.
SystemConfig crash_config(std::size_t crashes) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(),
                                           default_supernode_count(small_testbed()));
  cfg.faults.enabled = true;
  for (std::size_t i = 0; i < crashes; ++i) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSupernodeCrash;
    spec.at_s = 9.0 * 3600.0 + 1.0 + static_cast<double>(i) * 1e-3;
    spec.duration_s = 48.0 * 3600.0;
    cfg.faults.extra_specs.push_back(spec);
  }
  return cfg;
}

TEST(ChaosRun, CrashMidSessionDisplacesAndMigratesEveryAffectedPlayer) {
  System sys(small_testbed(), crash_config(2), 21);
  ASSERT_NE(sys.injector(), nullptr);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 24; ++sub) sys.run_subcycle(1, sub, false, sub >= 20);

  EXPECT_EQ(sys.injector()->injected(), 2u);
  EXPECT_EQ(sys.injector()->cleared(), 0u);
  EXPECT_GT(sys.metrics().sessions_interrupted, 0u);
  EXPECT_GT(sys.metrics().migration_latency_ms.count(), 0u);
  EXPECT_GT(sys.metrics().mttr_ms.count(), 0u);
  EXPECT_LT(sys.metrics().mttr_ms.mean(), 10000.0);  // recovery within seconds

  // The victims are marked failed, drained, and serve nobody.
  std::size_t failed = 0;
  for (const auto& sn : sys.fleet()) {
    if (sn.failed) {
      ++failed;
      EXPECT_EQ(sn.served, 0);
    }
  }
  EXPECT_EQ(failed, 2u);
  for (const auto& p : sys.players()) {
    if (p.online && p.serving.kind == ServingKind::kSupernode) {
      ASSERT_FALSE(sys.fleet()[p.serving.index].failed);
    }
  }
  sys.end_cycle(1);
}

TEST(ChaosRun, ReselectionAfterCrashStillRespectsLmax) {
  System sys(small_testbed(), crash_config(3), 22);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 12; ++sub) sys.run_subcycle(1, sub, false, false);

  // §3.2: every fog-served session — including the migrated ones — keeps a
  // one-way transmission delay within the game's L_max.
  const auto& tb = small_testbed();
  const double fraction = sys.config().fog.lmax_fraction_of_requirement;
  std::size_t fog_served = 0;
  for (const auto& p : sys.players()) {
    if (!p.online || p.serving.kind != ServingKind::kSupernode) continue;
    ++fog_served;
    const double lmax_ms =
        tb.catalog().game(p.game).latency_requirement_ms * fraction;
    const double rtt_ms = tb.latency().rtt_ms(p.info.endpoint,
                                              sys.fleet()[p.serving.index].endpoint);
    ASSERT_LE(rtt_ms / 2.0, lmax_ms + 1e-9);
  }
  EXPECT_GT(fog_served, 0u);
  sys.end_cycle(1);
}

TEST(ChaosRun, CrashedSupernodeReputationIsPenalised) {
  System sys(small_testbed(), crash_config(1), 23);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 12; ++sub) sys.run_subcycle(1, sub, false, false);

  std::size_t crashed = fault::kAnyTarget;
  for (std::size_t i = 0; i < sys.fleet().size(); ++i) {
    if (sys.fleet()[i].failed) crashed = i;
  }
  ASSERT_NE(crashed, fault::kAnyTarget);

  // Mid-day the only ratings in the system are the crash penalties: each
  // displaced player rated the dead node 0.0, which floors its score — a
  // crashed node ranks below any node with positive history (§3.2).
  std::size_t raters = 0;
  for (const auto& p : sys.players()) {
    const auto rated = p.reputation.rated_supernodes();
    if (std::find(rated.begin(), rated.end(), crashed) != rated.end()) {
      ++raters;
      EXPECT_DOUBLE_EQ(p.reputation.score(crashed, 1), 0.0);
    }
  }
  EXPECT_GT(raters, 0u);
  sys.end_cycle(1);
}

TEST(ChaosRun, ArmedButEmptyPlanMatchesDisabledBitForBit) {
  SystemConfig off = cloudfog_basic_config(small_testbed(),
                                           default_supernode_count(small_testbed()));
  SystemConfig on = off;
  on.faults.enabled = true;  // zero rate, no extra specs — armed but empty

  System a(small_testbed(), off, 33);
  System b(small_testbed(), on, 33);
  ASSERT_EQ(a.injector(), nullptr);
  ASSERT_NE(b.injector(), nullptr);

  const RunMetrics& ma = a.run(short_run());
  const RunMetrics& mb = b.run(short_run());
  EXPECT_EQ(b.injector()->injected(), 0u);
  EXPECT_DOUBLE_EQ(ma.continuity.mean(), mb.continuity.mean());
  EXPECT_DOUBLE_EQ(ma.response_latency_ms.mean(), mb.response_latency_ms.mean());
  EXPECT_DOUBLE_EQ(ma.cloud_egress_mbps.mean(), mb.cloud_egress_mbps.mean());
  EXPECT_DOUBLE_EQ(ma.fog_served_fraction.mean(), mb.fog_served_fraction.mean());
  EXPECT_EQ(mb.sessions_interrupted, 0u);
}

TEST(ChaosRun, SeededChaosReplaysTheSameFaultAndRecoverySequence) {
  SystemConfig cfg = cloudfog_basic_config(small_testbed(),
                                           default_supernode_count(small_testbed()));
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 2.0;
  cfg.faults.horizon_s = 3.0 * 24.0 * 3600.0;
  cfg.faults.seed = 7;

  System a(small_testbed(), cfg, 44);
  System b(small_testbed(), cfg, 44);
  const RunMetrics& ma = a.run(short_run());
  const RunMetrics& mb = b.run(short_run());

  ASSERT_NE(a.injector(), nullptr);
  EXPECT_GT(a.injector()->injected(), 0u);
  EXPECT_EQ(a.injector()->injected(), b.injector()->injected());
  EXPECT_EQ(a.injector()->cleared(), b.injector()->cleared());
  EXPECT_EQ(ma.sessions_interrupted, mb.sessions_interrupted);
  EXPECT_EQ(ma.mttr_ms.count(), mb.mttr_ms.count());
  EXPECT_DOUBLE_EQ(ma.continuity.mean(), mb.continuity.mean());
  EXPECT_DOUBLE_EQ(ma.response_latency_ms.mean(), mb.response_latency_ms.mean());
}

}  // namespace
}  // namespace cloudfog::core

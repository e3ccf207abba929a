// End-to-end behavioural tests: the paper's headline claims, verified on
// reduced-scale testbeds. These run the full system stack — testbed,
// churn, selection, QoS engine, strategies — and assert the *direction*
// of every effect the evaluation reports.
#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"

namespace cloudfog::core {
namespace {

const Testbed& testbed() {
  static const Testbed tb(TestbedConfig::peersim(1500), 4242);
  return tb;
}

sim::CycleConfig run_cfg(int cycles = 4, int warmup = 2) {
  sim::CycleConfig cfg;
  cfg.total_cycles = cycles;
  cfg.warmup_cycles = warmup;
  return cfg;
}

TEST(EndToEnd, CloudFogReducesCloudBandwidth) {
  // Fig. 6's headline: fog offload cuts cloud egress by a large factor.
  System cloud = make_cloud_system(testbed(), 1);
  System fog = make_cloudfog_basic(testbed(), 1);
  const double cloud_bw = cloud.run(run_cfg()).cloud_egress_mbps.mean();
  const double fog_bw = fog.run(run_cfg()).cloud_egress_mbps.mean();
  EXPECT_LT(fog_bw, cloud_bw / 2.0);
}

TEST(EndToEnd, CloudFogImprovesContinuityOverCloud) {
  // Fig. 8: CloudFog/B > Cloud on playback continuity.
  System cloud = make_cloud_system(testbed(), 2);
  System fog = make_cloudfog_basic(testbed(), 2);
  EXPECT_GT(fog.run(run_cfg()).continuity.mean(),
            cloud.run(run_cfg()).continuity.mean());
}

TEST(EndToEnd, AdvancedBeatsBasic) {
  // Figs. 7/8: the four strategies together improve both metrics.
  System basic = make_cloudfog_basic(testbed(), 3);
  System advanced = make_cloudfog_advanced(testbed(), 3);
  const RunMetrics& mb = basic.run(run_cfg());
  const RunMetrics& ma = advanced.run(run_cfg());
  EXPECT_GE(mb.response_latency_ms.mean(), ma.response_latency_ms.mean() - 1.0);
  EXPECT_GE(ma.continuity.mean(), mb.continuity.mean() - 0.01);
}

TEST(EndToEnd, CloudFogReducesLatencyVersusCloud) {
  // Fig. 7: CloudFog/B below Cloud.
  System cloud = make_cloud_system(testbed(), 4);
  System fog = make_cloudfog_basic(testbed(), 4);
  EXPECT_LT(fog.run(run_cfg()).response_latency_ms.mean(),
            cloud.run(run_cfg()).response_latency_ms.mean());
}

TEST(EndToEnd, ReputationRaisesSatisfaction) {
  // Fig. 10: reputation-based selection raises the satisfied share.
  SystemConfig off = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  SystemConfig on = off;
  on.strategies.reputation = true;
  System sys_off(testbed(), off, 5);
  System sys_on(testbed(), on, 5);
  const auto cycles = run_cfg(6, 3);  // reputation needs rating history
  EXPECT_GE(sys_on.run(cycles).satisfied_fraction.mean(),
            sys_off.run(cycles).satisfied_fraction.mean() - 0.02);
}

TEST(EndToEnd, AdaptationRaisesSatisfaction) {
  // Fig. 11: the rate adapter lifts satisfaction under congestion.
  SystemConfig off = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  SystemConfig on = off;
  on.strategies.rate_adaptation = true;
  System sys_off(testbed(), off, 6);
  System sys_on(testbed(), on, 6);
  EXPECT_GE(sys_on.run(run_cfg()).satisfied_fraction.mean(),
            sys_off.run(run_cfg()).satisfied_fraction.mean() - 0.02);
}

TEST(EndToEnd, SocialAssignmentCutsServerLatency) {
  // Fig. 12: clustering friends onto servers cuts the inter-server
  // component of response latency.
  SystemConfig off = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  SystemConfig on = off;
  on.strategies.social_assignment = true;
  System sys_off(testbed(), off, 7);
  System sys_on(testbed(), on, 7);
  const double lat_off = sys_off.run(run_cfg()).server_latency_ms.mean();
  const double lat_on = sys_on.run(run_cfg()).server_latency_ms.mean();
  EXPECT_LT(lat_on, lat_off);
}

TEST(EndToEnd, ProvisioningAbsorbsArrivalSurge) {
  // Figs. 13–15: with a surge of arrivals, the provisioned system keeps
  // cloud egress below the fixed-pool system.
  SystemConfig fixed = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  fixed.workload = WorkloadMode::kArrivalRates;
  fixed.arrivals = ArrivalWorkload{5.0, 40.0};
  fixed.fixed_deployment = 20;  // deliberately tight
  SystemConfig prov = fixed;
  prov.strategies.provisioning = true;
  System sys_fixed(testbed(), fixed, 8);
  System sys_prov(testbed(), prov, 8);
  const auto cycles = run_cfg(4, 2);
  const double bw_fixed = sys_fixed.run(cycles).cloud_egress_mbps.mean();
  const double bw_prov = sys_prov.run(cycles).cloud_egress_mbps.mean();
  EXPECT_LT(bw_prov, bw_fixed);
}

TEST(EndToEnd, MigrationIsFastEnoughToResumePlay) {
  // Fig. 9: migration completes in well under two seconds of protocol
  // time, so the game resumes without a restart. Ten wildcard crashes
  // fire as subcycle 22 opens.
  SystemConfig cfg = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  cfg.faults.enabled = true;
  for (std::size_t k = 0; k < 10; ++k) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSupernodeCrash;
    spec.at_s = 21.0 * 3600.0 + 1.0 + static_cast<double>(k) * 1e-3;
    cfg.faults.extra_specs.push_back(spec);
  }
  System sys(testbed(), cfg, 9);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 22; ++sub) sys.run_subcycle(1, sub, true, sub >= 20);
  const auto& latencies = sys.metrics().migration_latency_ms;
  ASSERT_FALSE(latencies.empty());
  EXPECT_LT(latencies.mean(), 2000.0);
}

TEST(EndToEnd, MaliciousSupernodesHurtAndReputationMitigates) {
  // §3.6 extension: deliberate video delay destroys satisfaction; the
  // private reputation system steers players away from the saboteurs.
  SystemConfig clean = cloudfog_basic_config(testbed(), default_supernode_count(testbed()));
  SystemConfig attacked = clean;
  attacked.adversary = {scenario::AdversaryKind::kFixedDelay, 0.3, 120.0};
  SystemConfig defended = attacked;
  defended.strategies.reputation = true;

  System sys_clean(testbed(), clean, 10);
  System sys_attacked(testbed(), attacked, 10);
  System sys_defended(testbed(), defended, 10);
  const auto cycles = run_cfg(6, 3);
  const double clean_sat = sys_clean.run(cycles).satisfied_fraction.mean();
  const double attacked_sat = sys_attacked.run(cycles).satisfied_fraction.mean();
  const double defended_sat = sys_defended.run(cycles).satisfied_fraction.mean();
  EXPECT_LT(attacked_sat, clean_sat - 0.02);   // the attack bites
  EXPECT_GT(defended_sat, attacked_sat);       // reputation recovers some of it
}

TEST(EndToEnd, PlanetLabProfileRunsAllArms) {
  const Testbed pl(TestbedConfig::planetlab(300), 77);
  System cloud = make_cloud_system(pl, 1);
  System cdn = make_cdn_system(pl, 1);
  System fog = make_cloudfog_advanced(pl, 1);
  const auto cycles = run_cfg(3, 1);
  EXPECT_GT(cloud.run(cycles).online_sessions.mean(), 0.0);
  EXPECT_GT(cdn.run(cycles).online_sessions.mean(), 0.0);
  EXPECT_GT(fog.run(cycles).online_sessions.mean(), 0.0);
}

}  // namespace
}  // namespace cloudfog::core

// Regression for the fallback-hysteresis contract under combined stress
// (scenario satellite): a flash crowd is mid-plateau when a regional outage
// takes down most of the local fleet. Displaced and newly arriving sessions
// degrade to cloud fallback; once the outage lifts, the hourly §3.2.2 retry
// wants them back on fog. The FallbackGovernor must hold every return until
// (a) the session has sat in fallback for the minimum residency and (b) the
// fleet has been stable for the stability window — otherwise sessions flap
// fog↔cloud, paying a migration interruption each bounce.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "sim/cycle_config.hpp"

namespace cloudfog::core {
namespace {

TEST(FallbackOscillation, GovernorHoldsReturnsThroughTheStabilityWindow) {
  const Testbed testbed(TestbedConfig::peersim(2000), 42);

  SystemConfig cfg;
  cfg.architecture = Architecture::kCloudFog;
  cfg.strategies.reputation = true;
  cfg.strategies.rate_adaptation = true;
  cfg.supernode_count = std::min<std::size_t>(150, testbed.supernode_capable().size());
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{12.0, 12.0};
  cfg.fog.selection.deadline_budget_ms = 700.0;
  cfg.fallback.min_residency_s = 3600.0;
  cfg.fallback.stability_window_s = 7200.0;

  // Regional outage: 70 % of the supernodes in the box crash at hour 30
  // for 4 hours. The governor sees the crashes and the recoveries as fleet
  // changes, so the stability window restarts when the outage lifts.
  const int cycles = 3;
  const int outage_start_hour = 30;
  const int outage_hours = 4;
  const double at_s = outage_start_hour * 3600.0 + 1.0;
  const double outage_end_s = at_s + outage_hours * 3600.0;

  const auto fleet = testbed.make_supernode_fleet(cfg.supernode_count);
  std::vector<fault::NodePosition> positions;
  for (const auto& sn : fleet) {
    positions.push_back(
        fault::NodePosition{sn.endpoint.position.x_km, sn.endpoint.position.y_km});
  }
  const fault::GeoBox box{0.0, 0.0, 2000.0, 1400.0};
  cfg.faults.enabled = true;
  cfg.faults.horizon_s = cycles * 24.0 * 3600.0;
  cfg.faults.extra_specs = fault::regional_outage_specs(
      positions, box, at_s, outage_hours * 3600.0, 0.7, 0.25, 120.0, 42);
  ASSERT_FALSE(cfg.faults.extra_specs.empty());

  System sys(testbed, cfg, 42);

  // Flash crowd: triple the arrival rate through the outage window, so the
  // fleet is contended exactly when it shrinks.
  const int crowd_start = 28;
  const int crowd_end = 38;

  std::uint64_t prev_fallbacks = 0;
  std::uint64_t prev_returns = 0;
  double first_fallback_end_s = -1.0;
  double first_return_end_s = -1.0;

  // The governor blocks returns until every fleet change is a full
  // stability window in the past. This run's fleet changes are the crash
  // burst at the outage start and the recoveries when it lifts, so any
  // subcycle lying entirely inside one of these windows must record zero
  // fog returns — a return there would be a fog↔cloud flap faster than
  // the hysteresis allows.
  const auto inside_blocked_window = [&](double start_s, double end_s) {
    const double w = cfg.fallback.stability_window_s;
    return (start_s >= at_s && end_s <= at_s + w) ||
           (start_s >= outage_end_s && end_s <= outage_end_s + w);
  };

  for (int day = 1; day <= cycles; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= sim::CycleConfig::subcycles_per_cycle; ++sub) {
      const int hour = (day - 1) * sim::CycleConfig::subcycles_per_cycle + (sub - 1);
      sys.set_arrival_rate_override(hour >= crowd_start && hour < crowd_end
                                        ? std::optional<double>(36.0)
                                        : std::nullopt);
      sys.run_subcycle(day, sub, /*warmup=*/false, sim::is_peak_subcycle(sub));

      const RunMetrics& m = sys.metrics();
      const double start_s = hour * 3600.0;
      const double end_s = (hour + 1) * 3600.0;
      if (first_fallback_end_s < 0.0 && m.fallbacks > prev_fallbacks) {
        first_fallback_end_s = end_s;
      }
      if (first_return_end_s < 0.0 && m.fog_returns > prev_returns) {
        first_return_end_s = end_s;
      }
      if (inside_blocked_window(start_s, end_s)) {
        EXPECT_EQ(m.fog_returns, prev_returns)
            << "return inside a stability window, hour " << hour;
      }
      prev_fallbacks = m.fallbacks;
      prev_returns = m.fog_returns;
    }
    sys.end_cycle(day);
  }
  sys.drain_sessions();

  const RunMetrics& m = sys.metrics();
  // The outage actually displaced sessions into cloud fallback...
  EXPECT_GT(m.fallbacks, 0u);
  EXPECT_GT(m.sessions_interrupted, 0u);
  ASSERT_GT(first_fallback_end_s, 0.0);
  // ...and the hourly retry did recover them onto fog eventually.
  EXPECT_GT(m.fog_returns, 0u);
  ASSERT_GT(first_return_end_s, 0.0);

  // Aggregate residency bound: fallbacks start no earlier than the crash
  // burst and returns no earlier than crash + stability, so the observed
  // end-stamp gap can never undercut the minimum residency.
  EXPECT_GE(first_return_end_s - first_fallback_end_s, cfg.fallback.min_residency_s);

  // Flap bound: a session cannot return more often than it fell back.
  EXPECT_LE(m.fog_returns, m.fallbacks);
}

TEST(FallbackOscillation, NoFaultsMeansNoFallbackTraffic) {
  // Control: the same crowd without the outage never touches the fallback
  // path, so any flapping in the test above is fault-driven by construction.
  const Testbed testbed(TestbedConfig::peersim(2000), 42);
  SystemConfig cfg;
  cfg.architecture = Architecture::kCloudFog;
  cfg.strategies.reputation = true;
  cfg.strategies.rate_adaptation = true;
  cfg.supernode_count = std::min<std::size_t>(150, testbed.supernode_capable().size());
  cfg.workload = WorkloadMode::kArrivalRates;
  cfg.arrivals = ArrivalWorkload{12.0, 12.0};

  System sys(testbed, cfg, 42);
  for (int day = 1; day <= 2; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= sim::CycleConfig::subcycles_per_cycle; ++sub) {
      sys.run_subcycle(day, sub, /*warmup=*/false, sim::is_peak_subcycle(sub));
    }
    sys.end_cycle(day);
  }
  sys.drain_sessions();
  EXPECT_EQ(sys.metrics().fallbacks, 0u);
  EXPECT_EQ(sys.metrics().fog_returns, 0u);
  EXPECT_EQ(sys.fallback_governor().entries(), 0u);
}

}  // namespace
}  // namespace cloudfog::core

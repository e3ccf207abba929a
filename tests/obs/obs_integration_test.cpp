// End-to-end observability: a small core::System run must leave behind a
// coherent trace (expected event kinds, sim-time ordered), populated
// counters, phase timings and a run summary.
#include <gtest/gtest.h>

#include <set>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "obs/obs.hpp"

namespace cloudfog::core {
namespace {

const Testbed& small_testbed() {
  static const Testbed tb(TestbedConfig::peersim(300), 17);
  return tb;
}

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Recorder::global().reset();
    obs::Recorder::global().set_enabled(true);
  }
  void TearDown() override {
    obs::Recorder::global().reset();
    obs::Recorder::global().set_enabled(false);
  }
};

TEST_F(ObsIntegrationTest, CloudFogRunEmitsOrderedJoinProbeEvents) {
  auto& rec = obs::Recorder::global();
  System sys = make_cloudfog_basic(small_testbed(), 7);
  sim::CycleConfig cycles;
  cycles.total_cycles = 2;
  cycles.warmup_cycles = 1;
  sys.run(cycles);

  // Counters from several layers moved.
  const auto& reg = rec.registry();
  EXPECT_GT(reg.counter_value("system.player_joins"), 0u);
  EXPECT_GT(reg.counter_value("system.player_leaves"), 0u);
  EXPECT_GT(reg.counter_value("fog.probes_sent"), 0u);
  EXPECT_GT(reg.counter_value("fog.capacity_asks"), 0u);
  EXPECT_GT(reg.counter_value("fog.claims_granted"), 0u);
  EXPECT_GT(reg.counter_value("reputation.ratings"), 0u);

  // Phase profile covers the instrumented subsystems.
  for (const char* phase : {"population", "qos.subcycle", "fog.select"}) {
    const auto* stats = rec.profiler().find(phase);
    ASSERT_NE(stats, nullptr) << phase;
    EXPECT_GT(stats->count, 0u) << phase;
  }

  // The trace holds the protocol's event kinds, in sim-time order.
  const auto events = rec.trace_buffer().events();
  ASSERT_FALSE(events.empty());
  std::set<obs::EventKind> kinds;
  double last = events.front().t;
  for (const auto& e : events) {
    ASSERT_GE(e.t, last);
    last = e.t;
    kinds.insert(e.kind);
  }
  for (const obs::EventKind expected :
       {obs::EventKind::kSubcycle, obs::EventKind::kPlayerJoin, obs::EventKind::kPlayerLeave,
        obs::EventKind::kProbeSent, obs::EventKind::kProbeAnswered,
        obs::EventKind::kCapacityClaim, obs::EventKind::kRating}) {
    EXPECT_TRUE(kinds.count(expected)) << obs::event_kind_name(expected);
  }

  // Join events carry the player's join latency; subcycle events the
  // online population.
  for (const auto& e : events) {
    if (e.kind == obs::EventKind::kPlayerJoin) {
      EXPECT_GT(e.value, 0.0);
    }
  }

  // The run summary was captured with percentile-bearing stats.
  ASSERT_EQ(rec.runs().size(), 1u);
  EXPECT_EQ(rec.runs()[0].label, "cloudfog/B");
  bool found_latency = false;
  for (const auto& stat : rec.runs()[0].stats) {
    if (stat.name == "response_latency_ms") {
      found_latency = true;
      EXPECT_TRUE(stat.has_percentiles);
      EXPECT_GT(stat.count, 0u);
      EXPECT_LE(stat.p50, stat.p99);
    }
  }
  EXPECT_TRUE(found_latency);
}

TEST_F(ObsIntegrationTest, FailureInjectionEmitsChurnAndMigration) {
  auto& rec = obs::Recorder::global();
  // Three wildcard crashes fire as subcycle 22 opens.
  SystemConfig cfg = cloudfog_basic_config(small_testbed(),
                                           default_supernode_count(small_testbed()));
  cfg.faults.enabled = true;
  for (std::size_t k = 0; k < 3; ++k) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSupernodeCrash;
    spec.at_s = 21.0 * 3600.0 + 1.0 + static_cast<double>(k) * 1e-3;
    cfg.faults.extra_specs.push_back(spec);
  }
  System sys(small_testbed(), cfg, 9, rec);
  sys.begin_cycle(1);
  for (int sub = 1; sub <= 22; ++sub) sys.run_subcycle(1, sub, false, sub >= 20);
  const std::size_t displaced = sys.metrics().migration_latency_ms.count();
  EXPECT_GT(displaced, 0u);
  EXPECT_EQ(rec.registry().counter_value("system.supernode_failures"), 3u);
  EXPECT_EQ(rec.registry().counter_value("system.migrations"), displaced);
  std::size_t churn = 0;
  std::size_t migrations = 0;
  for (const auto& e : rec.trace_buffer().events()) {
    if (e.kind == obs::EventKind::kSupernodeChurn) ++churn;
    if (e.kind == obs::EventKind::kMigration) ++migrations;
  }
  EXPECT_EQ(churn, 3u);
  EXPECT_EQ(migrations, displaced);
}

TEST_F(ObsIntegrationTest, FogSelectTimesEverySelectionOnce) {
  auto& rec = obs::Recorder::global();
  System sys = make_cloudfog_advanced(small_testbed(), 7);
  sim::CycleConfig cycles;
  cycles.total_cycles = 2;
  cycles.warmup_cycles = 1;
  sys.run(cycles);

  // Without faults nothing crashes, so no migration probes the cached
  // candidates: every selection is a full select_with_budget, and each one
  // ends in exactly one granted claim or one cloud fallback.
  const auto& reg = rec.registry();
  ASSERT_EQ(reg.counter_value("system.supernode_failures"), 0u);
  const std::uint64_t selections =
      reg.counter_value("fog.claims_granted") + reg.counter_value("fog.cloud_fallbacks");
  EXPECT_GE(selections, reg.counter_value("system.player_joins"));
  const auto* select = rec.profiler().find("fog.select");
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->count, selections);
  EXPECT_EQ(rec.profiler().find("fog.discovery"), nullptr);
  EXPECT_EQ(rec.profiler().find("fog.probe"), nullptr);
}

TEST_F(ObsIntegrationTest, DisabledRecorderLeavesNoTrace) {
  obs::Recorder::global().set_enabled(false);
  System sys = make_cloudfog_basic(small_testbed(), 11);
  sim::CycleConfig cycles;
  cycles.total_cycles = 1;
  cycles.warmup_cycles = 0;
  sys.run(cycles);
  auto& rec = obs::Recorder::global();
  EXPECT_EQ(rec.trace_buffer().total_pushed(), 0u);
  EXPECT_EQ(rec.registry().counter_value("system.player_joins"), 0u);
  EXPECT_TRUE(rec.runs().empty());
}

}  // namespace
}  // namespace cloudfog::core

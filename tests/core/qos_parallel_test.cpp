// Determinism of the scale-out QoS engine (DESIGN.md §10): grid discovery
// and the memoization tiers are pure performance features — every
// SubcycleQos field and every trace byte must be identical to the
// linear-discovery, memoization-free reference engine. The comparisons
// here are exact (EXPECT_EQ on doubles, byte-equal binary traces, which
// mean what byte-equal JSONL traces meant): "close" is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"

namespace {

using namespace cloudfog;

struct RunResult {
  std::vector<core::SubcycleQos> qos;
  std::string trace;
  std::uint64_t cloud_fallbacks = 0;
  std::uint64_t provisioning_rounds = 0;
  std::uint64_t crashes = 0;
};

/// Runs `days` full cycles under a fresh recorder and returns the
/// per-subcycle QoS plus the raw binary trace bytes.
RunResult run_system(const core::Testbed& testbed, core::SystemConfig cfg, int days) {
  obs::Recorder rec;
  rec.set_enabled(true);
  std::ostringstream trace(std::ios::binary);
  obs::BinaryTraceSink sink(trace);
  rec.trace_buffer().set_event_sink(&sink);

  RunResult result;
  {
    core::System system(testbed, cfg, 97, rec);
    constexpr int per_day = sim::CycleConfig::subcycles_per_cycle;
    for (int day = 1; day <= days; ++day) {
      system.begin_cycle(day);
      for (int s = 1; s <= per_day; ++s) {
        result.qos.push_back(system.run_subcycle(day, s, false, s >= 20));
      }
      system.end_cycle(day);
    }
  }

  rec.trace_buffer().flush();
  result.cloud_fallbacks = rec.registry().counter_value("fog.cloud_fallbacks");
  result.provisioning_rounds = rec.registry().counter_value("system.provisioning_rounds");
  result.crashes = rec.registry().counter_value("system.supernode_failures");
  rec.trace_buffer().set_event_sink(nullptr);
  result.trace = trace.str();
  return result;
}

bool has_injected_fault(const std::string& trace) {
  std::istringstream is(trace, std::ios::binary);
  obs::BinaryTraceReader reader(is);
  obs::TraceEvent event;
  while (reader.next(&event)) {
    if (event.kind == obs::EventKind::kFaultInjected) return true;
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  return false;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.qos.size(), b.qos.size());
  for (std::size_t i = 0; i < a.qos.size(); ++i) {
    SCOPED_TRACE("subcycle " + std::to_string(i));
    EXPECT_EQ(a.qos[i].avg_response_latency_ms, b.qos[i].avg_response_latency_ms);
    EXPECT_EQ(a.qos[i].avg_server_latency_ms, b.qos[i].avg_server_latency_ms);
    EXPECT_EQ(a.qos[i].avg_continuity, b.qos[i].avg_continuity);
    EXPECT_EQ(a.qos[i].satisfied_fraction, b.qos[i].satisfied_fraction);
    EXPECT_EQ(a.qos[i].avg_mos, b.qos[i].avg_mos);
    EXPECT_EQ(a.qos[i].cloud_egress_mbps, b.qos[i].cloud_egress_mbps);
    EXPECT_EQ(a.qos[i].online_sessions, b.qos[i].online_sessions);
    EXPECT_EQ(a.qos[i].fog_served, b.qos[i].fog_served);
    EXPECT_EQ(a.qos[i].cloud_served, b.qos[i].cloud_served);
    EXPECT_EQ(a.qos[i].cdn_served, b.qos[i].cdn_served);
  }
  // Not EXPECT_EQ: gtest would dump two multi-megabyte binary strings.
  // Report the first differing byte instead.
  const auto diff = std::mismatch(a.trace.begin(), a.trace.end(), b.trace.begin(), b.trace.end());
  const auto at = static_cast<std::size_t>(diff.first - a.trace.begin());
  EXPECT_TRUE(a.trace == b.trace) << "traces differ at byte " << at << " of " << a.trace.size()
                                  << " vs " << b.trace.size();
}

core::SystemConfig cloudfog_config() {
  core::SystemConfig cfg;
  cfg.architecture = core::Architecture::kCloudFog;
  cfg.supernode_count = 80;
  return cfg;
}

class QosParallelEquality : public ::testing::Test {
 protected:
  QosParallelEquality() : testbed_(core::TestbedConfig::peersim(1200), 7) {}
  core::Testbed testbed_;
};

TEST_F(QosParallelEquality, MemoizationMatchesReferenceExactly) {
  auto cfg = cloudfog_config();
  cfg.qos.memoize = false;
  const RunResult reference = run_system(testbed_, cfg, 2);
  cfg.qos.memoize = true;
  const RunResult memoized = run_system(testbed_, cfg, 2);
  ASSERT_FALSE(reference.trace.empty());
  expect_identical(reference, memoized);
}

TEST_F(QosParallelEquality, GridDiscoveryMatchesLinearExactly) {
  auto cfg = cloudfog_config();
  cfg.discovery = core::CandidateMode::kLinear;
  const RunResult linear = run_system(testbed_, cfg, 2);
  cfg.discovery = core::CandidateMode::kGrid;
  const RunResult grid = run_system(testbed_, cfg, 2);
  expect_identical(linear, grid);
}

// The same equality where discovery's seat-change hooks all fire: a fixed
// pool under provisioning saturates (joins fall back to the cloud), every
// provisioning round redeploys, and crashes displace and clear.
TEST_F(QosParallelEquality, GridDiscoveryMatchesLinearUnderSaturationAndChurn) {
  auto cfg = cloudfog_config();
  cfg.workload = core::WorkloadMode::kArrivalRates;
  cfg.arrivals = core::ArrivalWorkload{10.0, 40.0};
  cfg.fixed_deployment = 20;
  cfg.strategies.provisioning = true;
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 4.0;
  cfg.faults.horizon_s = 3.0 * 24.0 * 3600.0;
  cfg.faults.seed = 13;
  cfg.discovery = core::CandidateMode::kLinear;
  const RunResult linear = run_system(testbed_, cfg, 3);
  cfg.discovery = core::CandidateMode::kGrid;
  const RunResult grid = run_system(testbed_, cfg, 3);
  EXPECT_GT(grid.cloud_fallbacks, 0u);
  EXPECT_GT(grid.provisioning_rounds, 0u);
  EXPECT_GT(grid.crashes, 0u);
  expect_identical(linear, grid);
}

// The reference stack (linear + no memo) against the full optimized stack
// (grid + memo): end-to-end byte equality.
TEST_F(QosParallelEquality, OptimizedStackMatchesReferenceStack) {
  auto cfg = cloudfog_config();
  cfg.discovery = core::CandidateMode::kLinear;
  cfg.qos.memoize = false;
  const RunResult reference = run_system(testbed_, cfg, 2);
  cfg.discovery = core::CandidateMode::kGrid;
  cfg.qos.memoize = true;
  const RunResult optimized = run_system(testbed_, cfg, 2);
  expect_identical(reference, optimized);
}

// Same equality with injected faults: the tier-2 memo must key on the
// fault_* path inputs (slow nodes, channel impairment, partitions), or a
// cached observation would outlive the fault that shaped it.
TEST_F(QosParallelEquality, OptimizedStackMatchesReferenceUnderFaults) {
  auto cfg = cloudfog_config();
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 4.0;
  cfg.faults.horizon_s = 3.0 * 24.0 * 3600.0;
  cfg.faults.seed = 11;
  cfg.discovery = core::CandidateMode::kLinear;
  cfg.qos.memoize = false;
  const RunResult reference = run_system(testbed_, cfg, 3);
  cfg.discovery = core::CandidateMode::kGrid;
  cfg.qos.memoize = true;
  const RunResult optimized = run_system(testbed_, cfg, 3);
  ASSERT_TRUE(has_injected_fault(reference.trace));
  expect_identical(reference, optimized);
}

}  // namespace

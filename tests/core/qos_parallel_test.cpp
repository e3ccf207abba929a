// Determinism of the scale-out QoS engine (DESIGN.md §10): grid discovery
// and the memoization tiers are pure performance features — every
// SubcycleQos field and every trace byte must be identical to the
// linear-discovery, memoization-free reference engine, and every
// SubcycleQos field of two seeded runs is pinned across changes. The
// comparisons here are exact (EXPECT_EQ on doubles, byte-equal binary
// traces, which mean what byte-equal JSONL traces meant): "close" is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
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

// Every architecture: the memoized engine runs a non-adapting session's
// substeps back to back (DESIGN.md §10.2), the reference in substep
// order. CDN sessions are the ones left out of the server-latency sum.
TEST_F(QosParallelEquality, MemoizationMatchesReferenceExactly) {
  for (const auto arch :
       {core::Architecture::kCloudFog, core::Architecture::kCloudDirect, core::Architecture::kCdn}) {
    SCOPED_TRACE("architecture " + std::to_string(static_cast<int>(arch)));
    auto cfg = cloudfog_config();
    cfg.architecture = arch;
    cfg.qos.memoize = false;
    const RunResult reference = run_system(testbed_, cfg, 2);
    cfg.qos.memoize = true;
    const RunResult memoized = run_system(testbed_, cfg, 2);
    ASSERT_FALSE(reference.trace.empty());
    std::size_t served = 0;
    for (const auto& q : memoized.qos) {
      served += arch == core::Architecture::kCloudFog    ? q.fog_served
                : arch == core::Architecture::kCloudDirect ? q.cloud_served
                                                           : q.cdn_served;
    }
    EXPECT_GT(served, 0u);
    expect_identical(reference, memoized);
  }
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

/// FNV-1a over the bit pattern of every SubcycleQos field.
class QosDigest {
 public:
  void fold(const core::SubcycleQos& q) {
    for (const double v : {q.avg_response_latency_ms, q.avg_server_latency_ms, q.avg_continuity,
                           q.satisfied_fraction, q.avg_mos, q.cloud_egress_mbps}) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      fold(bits);
    }
    for (const std::size_t n : {q.online_sessions, q.fog_served, q.cloud_served, q.cdn_served})
      fold(static_cast<std::uint64_t>(n));
  }
  std::uint64_t value() const { return h_; }

 private:
  void fold(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct PinnedRun {
  std::vector<std::uint64_t> digests;  ///< one per day, over its subcycles in order
  std::uint64_t faults = 0;
  std::uint64_t provisioning_rounds = 0;
  std::uint64_t rate_switches = 0;
  std::size_t reassigns = 0;
};

PinnedRun pinned_run(const core::Testbed& testbed, const core::SystemConfig& cfg, int days) {
  obs::Recorder rec(0);
  rec.set_enabled(true);
  core::System system(testbed, cfg, 4242, rec);
  PinnedRun run;
  for (int day = 1; day <= days; ++day) {
    QosDigest digest;
    system.begin_cycle(day);
    for (int s = 1; s <= sim::CycleConfig::subcycles_per_cycle; ++s) {
      digest.fold(system.run_subcycle(day, s, day == 1, s >= 20));
    }
    system.end_cycle(day);
    run.digests.push_back(digest.value());
  }
  const auto& reg = rec.registry();
  run.faults = reg.counter_value("fault.injected");
  run.provisioning_rounds = reg.counter_value("system.provisioning_rounds");
  run.rate_switches = reg.counter_value("rate.switch_up") + reg.counter_value("rate.switch_down");
  run.reassigns = system.metrics().server_assignment_seconds.count();
  return run;
}

std::string hex(const std::vector<std::uint64_t>& digests) {
  std::ostringstream os;
  for (const std::uint64_t d : digests) {
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << d << "ull, ";
  }
  return os.str();
}

// Pins, subcycle by subcycle, the bit pattern of every SubcycleQos field
// of two seeded runs shaped like the benchmark's cells. The QoS substep
// path is restructured for speed only (DESIGN.md §10.2); any change to
// the order or grouping of its floating-point sums moves these digests.
// A deliberate model change updates them and says why in CHANGES.md.
TEST_F(QosParallelEquality, ArrivalChaosQosIsPinned) {
  auto cfg = cloudfog_config();
  cfg.workload = core::WorkloadMode::kArrivalRates;
  cfg.arrivals = core::ArrivalWorkload{2.0, 12.0};
  cfg.fixed_deployment = 50;
  cfg.strategies.provisioning = true;
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 5.0;
  cfg.faults.horizon_s = 3.0 * 24.0 * 3600.0;
  cfg.faults.seed = 17;
  ASSERT_FALSE(cfg.strategies.reputation);
  const PinnedRun run = pinned_run(testbed_, cfg, 3);
  EXPECT_GT(run.faults, 0u);
  EXPECT_GT(run.provisioning_rounds, 0u);
  const std::vector<std::uint64_t> pinned = {0x0480df312bc0a91cull, 0xf2e9d28d47bc03beull,
                                             0xcc4ca8c23869bd76ull};
  EXPECT_EQ(run.digests, pinned) << hex(run.digests);
}

TEST_F(QosParallelEquality, DailySocialQosIsPinnedAcrossAWeeklyReassign) {
  auto cfg = cloudfog_config();
  cfg.strategies = core::StrategyToggles::all();
  const PinnedRun run = pinned_run(testbed_, cfg, 8);
  EXPECT_EQ(run.reassigns, 1u);  // day 8 opens with the weekly pass
  EXPECT_GT(run.rate_switches, 0u);
  const std::vector<std::uint64_t> pinned = {
      0xd0bbb714bc86d085ull, 0xac6ec31aa2275071ull, 0x24d355031501e806ull, 0x5b4a1b60548686a7ull,
      0xf0d8ac4f34f7a47eull, 0xc7354b138670e594ull, 0xdcb9b152e4e33eb1ull, 0xa9ecade4ba6350fdull};
  EXPECT_EQ(run.digests, pinned) << hex(run.digests);
}

}  // namespace

// Trace retention determinism (DESIGN.md §11): sampling decisions are a
// pure function of the deterministic event arrival sequence — never wall
// clock or RNG — so a sampled (or aggregated) trace must be byte-identical
// across repeat runs, exactly like the full trace. Runs write the binary
// trace; the content checks read it back as tracecat's JSONL.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"

namespace {

using namespace cloudfog;

struct RetentionSpec {
  obs::TraceRetention mode = obs::TraceRetention::kFull;
  std::uint64_t sample_every = 1;
};

/// Runs one day under a fresh recorder with the given retention; returns
/// the binary trace bytes.
std::string run_traced(const core::Testbed& testbed, RetentionSpec spec) {
  obs::Recorder rec;
  rec.set_enabled(true);
  auto& buf = rec.trace_buffer();
  buf.set_retention(spec.mode, spec.sample_every);
  std::ostringstream trace(std::ios::binary);
  obs::BinaryTraceSink sink(trace);
  buf.set_event_sink(&sink);
  {
    core::SystemConfig cfg;
    cfg.architecture = core::Architecture::kCloudFog;
    cfg.supernode_count = 80;
    core::System system(testbed, cfg, 97, rec);
    constexpr int per_day = sim::CycleConfig::subcycles_per_cycle;
    system.begin_cycle(1);
    for (int s = 1; s <= per_day; ++s) system.run_subcycle(1, s, false, false);
    system.end_cycle(1);
  }
  buf.close_aggregation_window();
  buf.flush();
  EXPECT_EQ(buf.dropped(), 0u);
  buf.set_event_sink(nullptr);
  return trace.str();
}

/// A binary trace as JSONL, one line per event, as tracecat prints it.
std::string to_jsonl(const std::string& binary) {
  std::istringstream is(binary, std::ios::binary);
  obs::BinaryTraceReader reader(is);
  std::ostringstream os;
  obs::TraceEvent event;
  while (reader.next(&event)) obs::TraceBuffer::write_jsonl(os, event);
  EXPECT_TRUE(reader.ok()) << reader.error();
  return os.str();
}

class TraceRetention : public ::testing::Test {
 protected:
  TraceRetention() : testbed_(core::TestbedConfig::peersim(1200), 7) {}
  core::Testbed testbed_;
};

TEST_F(TraceRetention, SampledTraceIsIdenticalAcrossRuns) {
  const RetentionSpec sampled{obs::TraceRetention::kSampled, 16};
  const std::string first = run_traced(testbed_, sampled);
  ASSERT_FALSE(first.empty());
  // Repeat run: same seed, same bytes.
  EXPECT_EQ(first, run_traced(testbed_, sampled));
}

TEST_F(TraceRetention, SampledTraceIsASubsetKeepingStructure) {
  const std::string full = to_jsonl(run_traced(testbed_, {}));
  const std::string sampled =
      to_jsonl(run_traced(testbed_, {obs::TraceRetention::kSampled, 16}));
  ASSERT_LT(sampled.size(), full.size() / 4);
  // Every sampled line exists verbatim in the full trace, in order.
  std::istringstream lines(sampled);
  std::string line;
  std::size_t from = 0;
  while (std::getline(lines, line)) {
    const std::size_t at = full.find(line + "\n", from);
    ASSERT_NE(at, std::string::npos) << "sampled line missing from full trace: " << line;
    from = at + 1;
  }
  // Structural events all survive sampling.
  for (const char* needle : {"\"kind\":\"run_start\"", "\"kind\":\"subcycle\""}) {
    std::size_t count_full = 0, count_sampled = 0;
    for (std::size_t p = full.find(needle); p != std::string::npos;
         p = full.find(needle, p + 1)) ++count_full;
    for (std::size_t p = sampled.find(needle); p != std::string::npos;
         p = sampled.find(needle, p + 1)) ++count_sampled;
    EXPECT_EQ(count_full, count_sampled) << needle;
  }
}

TEST_F(TraceRetention, AggregatedTraceIsIdenticalAcrossRuns) {
  const RetentionSpec agg{obs::TraceRetention::kAggregated, 1};
  const std::string first = run_traced(testbed_, agg);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, run_traced(testbed_, agg));
  EXPECT_NE(to_jsonl(first).find("\"note\":\"agg\""), std::string::npos);
}

}  // namespace

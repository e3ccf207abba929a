#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace cloudfog::obs {
namespace {

/// The recorder is a process-wide singleton; every test starts from a
/// clean, enabled state and leaves it disabled.
class RecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::global().reset();
    Recorder::global().set_enabled(true);
  }
  void TearDown() override {
    Recorder::global().reset();
    Recorder::global().set_enabled(false);
  }
};

TEST_F(RecorderTest, DisabledTraceIsNoOp) {
  auto& rec = Recorder::global();
  rec.set_enabled(false);
  rec.trace(EventKind::kPlayerJoin, 1);
  EXPECT_EQ(rec.trace_buffer().total_pushed(), 0u);
}

TEST_F(RecorderTest, EventsCarrySimTime) {
  auto& rec = Recorder::global();
  rec.set_sim_time(3600.0);
  rec.trace(EventKind::kSubcycle, 1, 2);
  const auto events = rec.trace_buffer().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].t, 3600.0);
}

TEST_F(RecorderTest, ClockNeverRunsBackwards) {
  auto& rec = Recorder::global();
  rec.set_sim_time(100.0);
  rec.trace(EventKind::kSubcycle, 1, 1);
  rec.set_sim_time(50.0);  // a component mis-stepping backwards
  rec.trace(EventKind::kSubcycle, 1, 2);
  const auto events = rec.trace_buffer().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GE(events[1].t, events[0].t);
}

TEST_F(RecorderTest, BeginRunRebasesAcrossRuns) {
  auto& rec = Recorder::global();
  rec.begin_run("first");
  rec.set_sim_time(500.0);
  rec.trace(EventKind::kPlayerJoin, 1);
  rec.begin_run("second");  // the new run restarts its sim clock at zero
  rec.set_sim_time(10.0);
  rec.trace(EventKind::kPlayerJoin, 2);
  const auto events = rec.trace_buffer().events();
  ASSERT_EQ(events.size(), 4u);  // two kRunStart + two joins
  double last = events[0].t;
  for (const auto& e : events) {
    EXPECT_GE(e.t, last);
    last = e.t;
  }
  EXPECT_EQ(events[2].kind, EventKind::kRunStart);
  EXPECT_EQ(events[2].note.text(), "second");
}

TEST_F(RecorderTest, ScopedTimerRecordsOnlyWhenEnabled) {
  auto& rec = Recorder::global();
  for (int i = 0; i < 3; ++i) {
    CLOUDFOG_TIMED_SCOPE(rec, "test.phase");
  }
  rec.set_enabled(false);
  {
    CLOUDFOG_TIMED_SCOPE(rec, "test.phase");
  }
  rec.set_enabled(true);
  const auto* stats = rec.profiler().find("test.phase");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->count, 3u);
  EXPECT_GE(stats->max_ns, stats->min_ns);
}

TEST_F(RecorderTest, PhaseProfilerBucketsByLog2) {
  EXPECT_EQ(PhaseProfiler::bucket_for(0), 0u);
  EXPECT_EQ(PhaseProfiler::bucket_for(1), 0u);
  EXPECT_EQ(PhaseProfiler::bucket_for(2), 1u);
  EXPECT_EQ(PhaseProfiler::bucket_for(1023), 9u);
  EXPECT_EQ(PhaseProfiler::bucket_for(1024), 10u);
  // Durations past the last bucket saturate instead of indexing out.
  EXPECT_EQ(PhaseProfiler::bucket_for(~0ull), PhaseProfiler::kBuckets - 1);
}

TEST_F(RecorderTest, ReportJsonContainsAllSections) {
  auto& rec = Recorder::global();
  rec.begin_run("arm-a");
  rec.registry().add(rec.registry().counter("test.counter"), 7);
  rec.registry().set(rec.registry().gauge("test.gauge"), 2.5);
  rec.registry().observe(rec.registry().histogram("test.hist", 0.0, 10.0, 4), 3.0);
  rec.profiler().record(PhaseProfiler::intern("test.phase"), 1500);

  RunSummary run;
  run.label = "arm-a";
  run.measured_subcycles = 12;
  StatSummary stat;
  stat.name = "response_latency_ms";
  stat.count = 12;
  stat.mean = 100.0;
  stat.has_percentiles = true;
  stat.p50 = 99.0;
  stat.p95 = 140.0;
  stat.p99 = 150.0;
  run.stats.push_back(stat);
  rec.add_run_summary(run);

  std::ostringstream os;
  write_report_json(os, rec);
  const std::string json = os.str();
  EXPECT_NE(json.find("cloudfog.run_report/1"), std::string::npos);
  EXPECT_NE(json.find("\"arm-a\""), std::string::npos);
  EXPECT_NE(json.find("\"response_latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\":140"), std::string::npos);
  EXPECT_NE(json.find("\"test.counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"test.gauge\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"test.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  // Balanced braces — cheap structural sanity check.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(RecorderTest, ResetClearsValuesAndRuns) {
  auto& rec = Recorder::global();
  const CounterId id = rec.registry().counter("test.reset");
  rec.registry().add(id, 3);
  rec.trace(EventKind::kPlayerJoin, 1);
  rec.add_run_summary(RunSummary{});
  rec.reset();
  EXPECT_EQ(rec.registry().counter_value(id), 0u);
  EXPECT_EQ(rec.trace_buffer().total_pushed(), 0u);
  EXPECT_TRUE(rec.runs().empty());
}

TEST(RecorderMerge, CountOnlyChildFoldsIntoItsParentInOrder) {
  Recorder parent;
  parent.set_enabled(true);
  parent.add_run_summary(RunSummary{"first", 1, {}});
  const CounterId joins = parent.registry().counter("merge.test.joins");
  parent.registry().add(joins, 2);
  parent.profiler().record(PhaseProfiler::intern("merge.test.phase"), 100);

  Recorder child(0);  // count-only trace
  child.set_enabled(true);
  child.trace(EventKind::kPlayerJoin, 1);
  child.trace(EventKind::kPlayerLeave, 1);
  EXPECT_EQ(child.trace_buffer().total_pushed(), 2u);
  EXPECT_EQ(child.trace_buffer().size(), 0u);
  EXPECT_EQ(child.trace_buffer().dropped(), 2u);
  EXPECT_TRUE(child.trace_buffer().events().empty());
  child.add_run_summary(RunSummary{"second", 2, {}});
  child.registry().add(joins, 5);
  {
    CLOUDFOG_TIMED_SCOPE(child, "merge.test.phase");
  }

  parent.merge_from(child);
  ASSERT_EQ(parent.runs().size(), 2u);
  EXPECT_EQ(parent.runs()[0].label, "first");
  EXPECT_EQ(parent.runs()[1].label, "second");
  EXPECT_EQ(parent.registry().counter_value(joins), 7u);
  EXPECT_EQ(parent.profiler().find("merge.test.phase")->count, 2u);
  EXPECT_EQ(parent.trace_buffer().total_pushed(), 2u);
  EXPECT_EQ(parent.trace_buffer().size(), 0u);  // counted, not copied
  EXPECT_EQ(parent.trace_buffer().dropped(), 2u);
}

}  // namespace
}  // namespace cloudfog::obs

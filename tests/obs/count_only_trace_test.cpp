// The count-only trace path: a recorder whose buffer has no ring (every
// sweep cell's) only counts its events, inline, while a ring recorder
// stamps and keeps them exactly as before. Either way the counts a sweep
// reports do not depend on how many workers ran it.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "core/experiment.hpp"
#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"

namespace cloudfog::obs {
namespace {

/// A fixed mix of trace()/trace_at() calls with a clock that steps back
/// once (the clamp keeps it monotone) and a run boundary in the middle.
/// Returns how many events it pushed.
std::uint64_t feed(Recorder& rec) {
  const NoteId note = intern_note("count.only.test");
  rec.begin_run("a");
  rec.set_sim_time(10.0);
  rec.trace(EventKind::kProbeSent, 1, 2);
  rec.trace(EventKind::kProbeAnswered, 1, 2, 31.5, Note{note});
  rec.trace_at(12.0, EventKind::kCapacityClaim, 1, 2, 1.0);
  rec.set_sim_time(5.0);  // behind the last event: clamped
  rec.trace(EventKind::kPlayerJoin, 1, 2, 40.0);
  rec.trace_at(3.0, EventKind::kRating, 2, -1, 0.75);  // also clamped
  rec.begin_run("b");
  rec.set_sim_time(1.0);
  rec.trace(EventKind::kPlayerLeave, 1);
  rec.trace_at(2.5, EventKind::kSupernodeChurn, 2);
  return 9;  // two kRunStart + seven events
}

TEST(CountOnlyTrace, CountsEveryCallAndStoresNothing) {
  Recorder rec(0);
  rec.set_enabled(true);
  std::ostringstream sunk(std::ios::binary);
  BinaryTraceSink sink(sunk);
  rec.trace_buffer().set_event_sink(&sink);  // a sink does not make it keep events
  const std::uint64_t n = feed(rec);
  for (int i = 0; i < 1000; ++i) {
    rec.trace(EventKind::kProbeSent, i, i);
    rec.trace_at(static_cast<double>(i), EventKind::kProbeAnswered, i, i, 1.0);
  }
  rec.trace_buffer().flush();
  const TraceBuffer& t = rec.trace_buffer();
  EXPECT_EQ(t.total_pushed(), n + 2000);
  EXPECT_EQ(t.dropped(), n + 2000);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_sunk(), 0u);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(sunk.str().size(), kBinaryTraceHeaderBytes);  // the header, no event
  rec.trace_buffer().set_event_sink(nullptr);
}

TEST(CountOnlyTrace, DisabledCountOnlyRecorderCountsNothing) {
  Recorder rec(0);
  feed(rec);
  EXPECT_EQ(rec.trace_buffer().total_pushed(), 0u);
  EXPECT_EQ(rec.trace_buffer().dropped(), 0u);
}

TEST(CountOnlyTrace, MergeSumsTheChildrensCounts) {
  Recorder parent;
  parent.set_enabled(true);
  parent.trace(EventKind::kSubcycle, 1, 1);
  std::uint64_t pushed = 1;
  for (int c = 0; c < 3; ++c) {
    Recorder child(0);
    child.set_enabled(true);
    pushed += feed(child);
    parent.merge_from(child);
  }
  const TraceBuffer& t = parent.trace_buffer();
  EXPECT_EQ(t.total_pushed(), pushed);
  EXPECT_EQ(t.dropped(), pushed - 1);  // only the parent's own event is kept
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t.events()[0].kind, EventKind::kSubcycle);
}

TEST(CountOnlyTrace, RingRecorderKeepsEveryEventWithItsTimestamp) {
  Recorder rec(64);
  rec.set_enabled(true);
  const std::uint64_t n = feed(rec);
  const std::vector<TraceEvent> events = rec.trace_buffer().events();
  ASSERT_EQ(events.size(), n);
  EXPECT_EQ(rec.trace_buffer().total_pushed(), n);
  EXPECT_EQ(rec.trace_buffer().dropped(), 0u);

  // Stamps: base + sim time (or the trace_at time), never going backwards;
  // run "b" starts from the last stamp of run "a".
  const EventKind kinds[] = {EventKind::kRunStart,      EventKind::kProbeSent,
                             EventKind::kProbeAnswered, EventKind::kCapacityClaim,
                             EventKind::kPlayerJoin,    EventKind::kRating,
                             EventKind::kRunStart,      EventKind::kPlayerLeave,
                             EventKind::kSupernodeChurn};
  const double stamps[] = {0.0, 10.0, 10.0, 12.0, 12.0, 12.0, 12.0, 13.0, 14.5};
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, kinds[i]) << i;
    EXPECT_DOUBLE_EQ(events[i].t, stamps[i]) << i;
  }
  EXPECT_EQ(events[1].subject, 1);
  EXPECT_EQ(events[1].object, 2);
  EXPECT_DOUBLE_EQ(events[2].value, 31.5);
  EXPECT_EQ(events[2].note.text(), "count.only.test");
  EXPECT_EQ(events[6].note.text(), "b");
}

/// Trace and probe counts of a quick PlanetLab population sweep (Figs.
/// 6–8) at `jobs` workers. The cells trace into count-only children.
struct SweepCounts {
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_qualified = 0;
};

SweepCounts population_counts(int jobs) {
  core::ExperimentScale scale = core::ExperimentScale::quick();
  scale.jobs = jobs;
  Recorder rec;
  rec.set_enabled(true);
  core::population_sweep(core::TestbedProfile::kPlanetLab, {150, 300}, scale, rec);
  return {rec.trace_buffer().total_pushed(), rec.trace_buffer().dropped(),
          rec.registry().counter_value("fog.probes_sent"),
          rec.registry().counter_value("fog.probes_qualified")};
}

TEST(CountOnlyTrace, PopulationSweepCountsMatchAtOneAndFourWorkers) {
  const SweepCounts serial = population_counts(1);
  const SweepCounts pooled = population_counts(4);
  EXPECT_EQ(serial.pushed, pooled.pushed);
  EXPECT_EQ(serial.dropped, pooled.dropped);
  EXPECT_EQ(serial.probes_sent, pooled.probes_sent);
  EXPECT_EQ(serial.probes_qualified, pooled.probes_qualified);
  // Recorded from the out-of-line trace path and per-probe counter adds
  // that preceded the count-only path: the counts must not move.
  EXPECT_EQ(serial.pushed, 51484u);
  EXPECT_EQ(serial.dropped, 51484u);
  EXPECT_EQ(serial.probes_sent, 16281u);
  EXPECT_EQ(serial.probes_qualified, 9848u);
}

}  // namespace
}  // namespace cloudfog::obs

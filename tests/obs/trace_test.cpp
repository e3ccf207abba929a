#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "obs/binary_trace.hpp"
#include "obs/json.hpp"

namespace cloudfog::obs {
namespace {

TraceEvent at(double t, EventKind kind = EventKind::kPlayerJoin) {
  TraceEvent e;
  e.t = t;
  e.kind = kind;
  return e;
}

TEST(TraceBuffer, KeepsEventsOldestFirst) {
  TraceBuffer buf(8);
  for (int i = 0; i < 5; ++i) buf.push(at(i));
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)].t, i);
  EXPECT_EQ(buf.total_pushed(), 5u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBuffer, WrapsAroundDroppingOldestWithoutSink) {
  TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) buf.push(at(i));
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 4u);
  // The surviving window is the most recent four events, oldest first.
  EXPECT_DOUBLE_EQ(events.front().t, 6.0);
  EXPECT_DOUBLE_EQ(events.back().t, 9.0);
  EXPECT_EQ(buf.total_pushed(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
}

TEST(TraceBuffer, SinkStreamsEveryEvent) {
  std::ostringstream os(std::ios::binary);
  BinaryTraceSink sink(os);
  TraceBuffer buf(4);
  buf.set_event_sink(&sink);
  for (int i = 0; i < 10; ++i) buf.push(at(i));
  buf.flush();
  buf.set_event_sink(nullptr);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.total_sunk(), 10u);
  std::istringstream is(os.str(), std::ios::binary);
  BinaryTraceReader reader(is);
  TraceEvent e;
  int events = 0;
  while (reader.next(&e)) {
    EXPECT_DOUBLE_EQ(e.t, events);
    ++events;
  }
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(events, 10);
}

TEST(TraceBuffer, AttachingSinkFlushesBufferedEvents) {
  TraceBuffer buf(8);
  buf.push(at(1.0));
  buf.push(at(2.0));
  std::ostringstream os(std::ios::binary);
  BinaryTraceSink sink(os);
  buf.set_event_sink(&sink);
  EXPECT_EQ(buf.total_sunk(), 2u);
  EXPECT_EQ(buf.size(), 0u);
  buf.set_event_sink(nullptr);
}

TEST(TraceBuffer, JsonlFieldsAndOptionalOmission) {
  TraceEvent e;
  e.t = 1.5;
  e.kind = EventKind::kProbeAnswered;
  e.subject = 7;
  e.object = 3;
  e.value = 42.0;
  e.note = intern_note("within_lmax");
  std::ostringstream os;
  TraceBuffer::write_jsonl(os, e);
  EXPECT_EQ(os.str(),
            "{\"t\":1.5,\"kind\":\"probe_answered\",\"subject\":7,\"object\":3,"
            "\"value\":42,\"note\":\"within_lmax\"}\n");

  TraceEvent bare;
  bare.t = 0.0;
  bare.kind = EventKind::kPlayerLeave;
  bare.subject = 2;
  std::ostringstream os2;
  TraceBuffer::write_jsonl(os2, bare);
  // object, value and note are omitted when unset.
  EXPECT_EQ(os2.str(), "{\"t\":0,\"kind\":\"player_leave\",\"subject\":2}\n");
}

TEST(TraceBuffer, JsonlEscapesNotes) {
  TraceEvent e;
  e.kind = EventKind::kProvisioning;
  e.note = intern_note("a\"b\\c\nd\x01");
  std::ostringstream os;
  TraceBuffer::write_jsonl(os, e);
  EXPECT_NE(os.str().find("a\\\"b\\\\c\\nd\\u0001"), std::string::npos);
}

TEST(JsonEscape, ControlCharactersAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string("nul\x1f")), "nul\\u001f");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(1.25), "1.25");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(EventKindName, CoversAllKinds) {
  EXPECT_STREQ(event_kind_name(EventKind::kRunStart), "run_start");
  EXPECT_STREQ(event_kind_name(EventKind::kSubcycle), "subcycle");
  EXPECT_STREQ(event_kind_name(EventKind::kMigration), "migration");
  EXPECT_STREQ(event_kind_name(EventKind::kRateSwitch), "rate_switch");
  EXPECT_STREQ(event_kind_name(EventKind::kRating), "rating");
}

TEST(EventKindName, EveryKindHasADistinctName) {
  // tracecat's JSONL identifies a kind by its name alone.
  std::set<std::string> names;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const std::string name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_NE(name, "unknown") << k;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST(TraceBuffer, ClearResetsBufferAndCounters) {
  TraceBuffer buf(4);
  buf.push(at(1.0));
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.events().empty());
  // A cleared buffer is fully reusable, including retention re-selection.
  EXPECT_EQ(buf.total_pushed(), 0u);
  buf.set_retention(TraceRetention::kSampled, 4);
  EXPECT_EQ(buf.retention(), TraceRetention::kSampled);
}

TEST(TraceBuffer, SampledRetentionKeepsStructuralAndEveryNth) {
  TraceBuffer buf(64);
  buf.set_retention(TraceRetention::kSampled, 4);
  buf.push(at(0.0, EventKind::kRunStart));
  for (int i = 0; i < 8; ++i) buf.push(at(1.0 + i, EventKind::kPlayerJoin));
  buf.push(at(10.0, EventKind::kSubcycle));
  const auto events = buf.events();
  // run_start + joins 0 and 4 + subcycle.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kRunStart);
  EXPECT_DOUBLE_EQ(events[1].t, 1.0);
  EXPECT_DOUBLE_EQ(events[2].t, 5.0);
  EXPECT_EQ(events[3].kind, EventKind::kSubcycle);
  EXPECT_EQ(buf.sampled_out(), 6u);
  EXPECT_EQ(buf.total_pushed(), 10u);
}

TEST(TraceBuffer, AggregatedRetentionSummarizesPerWindow) {
  TraceBuffer buf(64);
  buf.set_retention(TraceRetention::kAggregated);
  buf.push(at(0.0, EventKind::kRunStart));
  for (int i = 0; i < 3; ++i) {
    TraceEvent e = at(1.0 + i, EventKind::kPlayerJoin);
    e.value = 10.0;
    buf.push(e);
  }
  buf.push(at(2.0, EventKind::kProbeSent));
  buf.push(at(5.0, EventKind::kSubcycle));  // closes the window
  const auto events = buf.events();
  // run_start, then two summaries (enum order: join before probe), then
  // the boundary itself.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kRunStart);
  EXPECT_EQ(events[1].kind, EventKind::kPlayerJoin);
  EXPECT_EQ(events[1].subject, 3);
  EXPECT_DOUBLE_EQ(events[1].value, 30.0);
  EXPECT_EQ(events[1].note.text(), "agg");
  EXPECT_DOUBLE_EQ(events[1].t, 5.0);
  EXPECT_EQ(events[2].kind, EventKind::kProbeSent);
  EXPECT_EQ(events[2].subject, 1);
  EXPECT_EQ(events[3].kind, EventKind::kSubcycle);
  EXPECT_EQ(buf.aggregated(), 4u);
}

TEST(TraceBuffer, CloseAggregationWindowFlushesTrailingEvents) {
  TraceBuffer buf(64);
  buf.set_retention(TraceRetention::kAggregated);
  TraceEvent e = at(7.0, EventKind::kMigration);
  e.value = 2.5;
  buf.push(e);
  EXPECT_TRUE(buf.events().empty());
  buf.close_aggregation_window();
  const auto events = buf.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kMigration);
  EXPECT_DOUBLE_EQ(events[0].t, 7.0);
  EXPECT_DOUBLE_EQ(events[0].value, 2.5);
}

TEST(TraceBuffer, NoteArgumentAppendsToInternedText) {
  TraceEvent e;
  e.kind = EventKind::kProvisioning;
  e.value = 3.0;
  e.note = Note{intern_note("wanted="), 42};
  std::ostringstream os;
  TraceBuffer::write_jsonl(os, e);
  EXPECT_NE(os.str().find("\"note\":\"wanted=42\""), std::string::npos);
  EXPECT_EQ(e.note.text(), "wanted=42");
}

}  // namespace
}  // namespace cloudfog::obs

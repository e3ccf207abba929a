// Binary trace format (DESIGN.md §11): the binary encoding is a pure
// transport — decoding must reproduce every event bit-for-bit, so the
// JSONL rendered from a decoded stream is byte-identical to the JSONL
// rendered from the original events. "Close" is a bug.
#include "obs/binary_trace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace cloudfog::obs {
namespace {

std::string to_jsonl(const std::vector<TraceEvent>& events) {
  std::ostringstream os;
  for (const auto& e : events) TraceBuffer::write_jsonl(os, e);
  return os.str();
}

std::string encode(const std::vector<TraceEvent>& events) {
  std::ostringstream os(std::ios::binary);
  BinaryTraceSink sink(os);
  for (const auto& e : events) sink.write(e);
  sink.flush();
  return os.str();
}

std::vector<TraceEvent> decode(const std::string& bytes, std::string* error = nullptr) {
  std::istringstream is(bytes, std::ios::binary);
  BinaryTraceReader reader(is);
  std::vector<TraceEvent> out;
  TraceEvent e;
  while (reader.next(&e)) out.push_back(e);
  if (error != nullptr) *error = reader.error();
  EXPECT_TRUE(error != nullptr || reader.ok()) << reader.error();
  return out;
}

TEST(BinaryTrace, RoundTripsEveryEventKindByteIdentically) {
  std::vector<TraceEvent> events;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    TraceEvent e;
    e.t = 0.125 * static_cast<double>(k);
    e.kind = static_cast<EventKind>(k);
    e.subject = static_cast<std::int64_t>(k);
    e.object = static_cast<std::int64_t>(k) - 2;
    e.value = 1.0 / static_cast<double>(k + 1);
    e.note = intern_note(std::string(event_kind_name(e.kind)) + "_note");
    events.push_back(e);
  }
  const auto decoded = decode(encode(events));
  ASSERT_EQ(decoded.size(), events.size());
  EXPECT_EQ(to_jsonl(decoded), to_jsonl(events));
}

TEST(BinaryTrace, RoundTripProperty) {
  // Seeded fuzz over kinds, payloads, interned + novel notes, integer
  // note arguments, and awkward doubles (non-finite values included: the
  // binary format must carry the exact bits even where JSONL writes null).
  util::Rng rng(20260807);
  std::vector<TraceEvent> events;
  const NoteId shared[] = {NoteId{}, intern_note("granted"), intern_note("denied"),
                           intern_note("wanted="), intern_note("agg")};
  const double awkward[] = {0.0, -0.0, 1e-300, -1e300, 0.1,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::denorm_min()};
  for (int i = 0; i < 5000; ++i) {
    TraceEvent e;
    e.t = rng.uniform(0.0, 86400.0);
    e.kind = static_cast<EventKind>(rng.uniform_int(0, static_cast<std::int64_t>(kEventKindCount) - 1));
    e.subject = rng.uniform_int(-1, 1000000);
    e.object = rng.uniform_int(-1, 1000000);
    e.value = rng.uniform_int(0, 7) == 0
                  ? awkward[rng.uniform_int(0, static_cast<std::int64_t>(std::size(awkward)) - 1)]
                  : rng.uniform(-1e6, 1e6);
    const std::int64_t pick = rng.uniform_int(0, 9);
    if (pick < 5) {
      e.note = shared[rng.uniform_int(0, static_cast<std::int64_t>(std::size(shared)) - 1)];
    } else if (pick < 7) {
      // Novel note text, first seen mid-stream.
      e.note = intern_note("novel_" + std::to_string(i));
    }
    if (!e.note.empty() && rng.uniform_int(0, 1) == 0) {
      e.note = Note{e.note.id, rng.uniform_int(-1000, 100000)};
    }
    events.push_back(e);
  }
  const std::string bytes = encode(events);
  const auto decoded = decode(bytes);
  ASSERT_EQ(decoded.size(), events.size());
  EXPECT_EQ(to_jsonl(decoded), to_jsonl(events));
  // The exact payload bits survive, not just their printed form.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(std::signbit(decoded[i].value), std::signbit(events[i].value));
    EXPECT_EQ(std::isnan(decoded[i].value), std::isnan(events[i].value));
  }
}

TEST(BinaryTrace, StringTableEntriesAreWrittenOnce) {
  std::vector<TraceEvent> events;
  const NoteId note = intern_note("repeated_note_text");
  for (int i = 0; i < 100; ++i) {
    TraceEvent e;
    e.kind = EventKind::kRating;
    e.note = note;
    events.push_back(e);
  }
  const std::string bytes = encode(events);
  // header + one string frame (tag + id + len + text) + 100 event frames.
  const std::size_t expected = kBinaryTraceHeaderBytes +
                               (1 + 2 + 2 + std::string("repeated_note_text").size()) +
                               100 * (1 + kBinaryTraceRecordBytes);
  EXPECT_EQ(bytes.size(), expected);
}

TEST(BinaryTrace, FlushMidStreamPreservesTheByteStream) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.t = i;
    e.kind = EventKind::kPlayerJoin;
    e.note = intern_note("flush_note_" + std::to_string(i % 3));
    events.push_back(e);
  }
  std::ostringstream os(std::ios::binary);
  {
    BinaryTraceSink sink(os);
    for (std::size_t i = 0; i < events.size(); ++i) {
      sink.write(events[i]);
      if (i % 3 == 0) sink.flush();  // arbitrary flush boundaries
    }
  }  // destructor flushes the rest
  EXPECT_EQ(os.str(), encode(events));
}

TEST(BinaryTrace, RingWrapAndFlushThroughTraceBufferLosesNothing) {
  TraceBuffer buf(16);  // much smaller than the event count: forces wraps
  std::ostringstream os(std::ios::binary);
  BinaryTraceSink sink(os);
  buf.set_event_sink(&sink);
  std::vector<TraceEvent> events;
  for (int i = 0; i < 1000; ++i) {
    TraceEvent e;
    e.t = 0.25 * i;
    e.kind = static_cast<EventKind>(static_cast<std::size_t>(i) % kEventKindCount);
    e.subject = i;
    events.push_back(e);
    buf.push(e);
  }
  buf.flush();
  buf.set_event_sink(nullptr);
  EXPECT_EQ(buf.dropped(), 0u);
  const auto decoded = decode(os.str());
  ASSERT_EQ(decoded.size(), events.size());
  EXPECT_EQ(to_jsonl(decoded), to_jsonl(events));
}

TEST(BinaryTraceReader, RejectsBadMagicAndTruncation) {
  TraceEvent e;
  e.kind = EventKind::kRating;
  const std::string bytes = encode({e});

  std::string corrupt = bytes;
  corrupt[0] = 'X';
  std::string error;
  decode(corrupt, &error);
  EXPECT_FALSE(error.empty());

  // Cutting into the middle of the event record is truncation, not EOF.
  const std::string truncated = bytes.substr(0, bytes.size() - 10);
  decode(truncated, &error);
  EXPECT_FALSE(error.empty());

  // Clean EOF right after the header is an empty trace, not an error.
  const auto empty = decode(bytes.substr(0, kBinaryTraceHeaderBytes), &error);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(error.empty()) << error;
}

TEST(BinaryTraceReader, RejectsAnotherFormatVersion) {
  // Kind codes differ between format versions, so an older file must not
  // decode as if it were current.
  TraceEvent e;
  e.kind = EventKind::kRating;
  std::string bytes = encode({e});
  bytes[4] = static_cast<char>(kBinaryTraceVersion - 1);
  std::string error;
  EXPECT_TRUE(decode(bytes, &error).empty());
  EXPECT_NE(error.find("unsupported binary trace version"), std::string::npos) << error;
}

TEST(BinaryTraceReader, RejectsUnknownEventKind) {
  TraceEvent e;
  const std::string bytes = encode({e});
  std::string corrupt = bytes;
  // Kind byte lives at offset 40 of the record, after the header + tag.
  corrupt[kBinaryTraceHeaderBytes + 1 + 40] = static_cast<char>(0x7f);
  std::string error;
  decode(corrupt, &error);
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cloudfog::obs

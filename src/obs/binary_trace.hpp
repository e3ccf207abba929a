// Fixed-width binary trace format (DESIGN.md §11).
//
// The only trace format a run writes. JSONL's per-event formatting cost
// (shortest-round-trip double printing, string allocation) would dominate
// the subcycle, so each event is one fixed 44-byte little-endian record,
// with note texts interned into a per-file string table: the hot path
// never formats or allocates.
//
// File layout (all integers little-endian, regardless of host):
//
//   header (12 bytes):
//     0  u8[4]  magic "CFTR"
//     4  u16    format version (kBinaryTraceVersion)
//     6  u16    header size in bytes (12)
//     8  u16    event record size in bytes (44)
//     10 u16    reserved (0)
//
//   then a stream of tagged frames:
//     tag u8 = 0x01: string-table entry — u16 file-local id, u16 byte
//                    length, then the UTF-8 bytes. Ids are assigned in
//                    order of first use; id 0 is reserved for the empty
//                    note and never written.
//     tag u8 = 0x02: event record (44 bytes):
//        0  f64  t
//        8  i64  subject
//        16 i64  object
//        24 f64  value
//        32 i64  note argument (meaningful iff flags bit 0)
//        40 u8   event kind
//        41 u8   flags (bit 0: note argument present)
//        42 u16  note id (file-local; 0 = no note text)
//
// tools/trace/tracecat converts a binary trace to JSONL offline, one
// TraceBuffer::write_jsonl line per event — doubles and note texts
// round-trip exactly.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace cloudfog::obs {

inline constexpr std::uint16_t kBinaryTraceVersion = 2;
inline constexpr std::size_t kBinaryTraceHeaderBytes = 12;
inline constexpr std::size_t kBinaryTraceRecordBytes = 44;
inline constexpr std::uint8_t kBinaryFrameString = 0x01;
inline constexpr std::uint8_t kBinaryFrameEvent = 0x02;

/// Streaming binary writer, the TraceBuffer's sink: write() takes each
/// retained event in trace order and encodes it into an internal buffer,
/// which goes to the stream in large blocks; flush() drains the buffer.
class BinaryTraceSink {
 public:
  explicit BinaryTraceSink(std::ostream& os);
  ~BinaryTraceSink();

  void write(const TraceEvent& event);
  void flush();

 private:
  std::uint16_t file_note_id(NoteId note);

  std::ostream* os_;
  std::vector<char> buf_;
  /// Global note index -> file-local id (0 = not yet assigned).
  std::vector<std::uint16_t> file_ids_;
  std::uint16_t next_file_id_ = 1;
};

/// Streaming binary reader: decodes frames, interning string-table entries
/// into the process-wide note table so decoded events serialize exactly
/// like the originals.
class BinaryTraceReader {
 public:
  explicit BinaryTraceReader(std::istream& is);

  /// Decodes the next event into `*out`. Returns false at clean EOF or on
  /// error — check ok()/error() to distinguish.
  bool next(TraceEvent* out);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(std::string message) { error_ = std::move(message); }

  std::istream* is_;
  /// File-local string id -> interned global note id.
  std::vector<NoteId> notes_;
  std::string error_;
};

}  // namespace cloudfog::obs

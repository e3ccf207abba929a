// Interned observability vocabularies.
//
// The note table interns each distinct trace-note text ("granted",
// "within_lmax", ...) once, process-wide, behind a small NoteId; events
// carry the id (plus an optional integer argument appended at
// serialization time), so pushing a trace event never allocates.
//
// Counter, gauge, histogram and phase names are interned the same way
// (obs/intern_table.hpp), so a handle resolved once through any recorder
// indexes the same metric in every recorder.
//
// Interning is thread-safe, but is expected to be cold: hot call sites
// intern once (through function-local statics) and reuse the id.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cloudfog::obs {

/// Handle of an interned note text. Index 0 is the empty note.
struct NoteId {
  std::uint32_t index = 0;
};

/// Interns `text` and returns its stable process-wide id. The same text
/// always yields the same id; the empty string yields NoteId{0}.
NoteId intern_note(std::string_view text);

/// Text of an interned note. Valid for the process lifetime.
std::string_view note_text(NoteId id);

/// A note as attached to a trace event: an interned text plus an optional
/// integer argument. The serialized note is the text with the argument's
/// decimal representation appended ("wanted=" + 42 -> "wanted=42"), which
/// keeps variable notes allocation-free on the emit path.
struct Note {
  NoteId id{};
  std::int64_t arg = 0;
  bool has_arg = false;

  constexpr Note() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): NoteId -> Note is the
  // common "plain interned note" case at every trace call site.
  constexpr Note(NoteId note_id) : id(note_id) {}
  constexpr Note(NoteId note_id, std::int64_t argument)
      : id(note_id), arg(argument), has_arg(true) {}

  bool empty() const { return id.index == 0 && !has_arg; }

  /// Fully resolved note text, argument included. Allocates; meant for
  /// tests and offline consumers, not the emit path.
  std::string text() const;
};

}  // namespace cloudfog::obs

#include "obs/note_table.hpp"

#include "obs/intern_table.hpp"

namespace cloudfog::obs {

namespace {

// Interned notes are immortal by design: trace sinks resolve note ids to
// text as late as the final flush in ObsSession's destructor, which can
// run after any normally-scoped static here would already be gone (the
// table is first touched lazily, so it would be torn down first). The
// leaked singleton never destructs; the pointer keeps the allocation
// reachable, so leak checkers stay quiet.
InternTable<>& table() {
  static InternTable<>* t = [] {
    auto* fresh = new InternTable<>();
    fresh->intern("");  // index 0: the empty note
    return fresh;
  }();
  return *t;
}

}  // namespace

NoteId intern_note(std::string_view text) {
  if (text.empty()) return NoteId{0};
  return NoteId{table().intern(text)};
}

std::string_view note_text(NoteId id) { return table().text(id.index); }

std::string Note::text() const {
  std::string out(note_text(id));
  if (has_arg) out += std::to_string(arg);
  return out;
}

}  // namespace cloudfog::obs

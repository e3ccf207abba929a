#include "obs/note_table.hpp"

#include <deque>
#include <map>

#include "util/annotations.hpp"

namespace cloudfog::obs {

namespace {

// std::map (not unordered) keeps lookups deterministic-friendly and the
// table is never iterated on a hot path; std::deque gives stable storage
// so note_text() views stay valid across later interning. Interning is
// idempotent and id assignment is race-free under mu, which the capability
// annotations let clang check.
struct NoteTable {
  util::Mutex mu;
  std::map<std::string, std::uint32_t, std::less<>> ids CF_GUARDED_BY(mu);
  std::deque<std::string> texts CF_GUARDED_BY(mu);

  NoteTable() {
    texts.emplace_back();  // index 0: the empty note
    ids.emplace(std::string{}, 0u);
  }
};

// Interned notes are immortal by design: trace sinks resolve note ids to
// text as late as the final flush in ObsSession's destructor, which can
// run after any normally-scoped static here would already be gone (the
// table is first touched lazily, so it would be torn down first). The
// leaked singleton never destructs; the pointer keeps the allocation
// reachable, so leak checkers stay quiet.
NoteTable& table() {
  static NoteTable* t = new NoteTable();
  return *t;
}

}  // namespace

NoteId intern_note(std::string_view text) {
  if (text.empty()) return NoteId{0};
  NoteTable& t = table();
  const util::MutexLock lock(t.mu);
  const auto it = t.ids.find(text);
  if (it != t.ids.end()) return NoteId{it->second};
  const auto index = static_cast<std::uint32_t>(t.texts.size());
  t.texts.emplace_back(text);
  t.ids.emplace(std::string(text), index);
  return NoteId{index};
}

std::string_view note_text(NoteId id) {
  NoteTable& t = table();
  const util::MutexLock lock(t.mu);
  if (id.index >= t.texts.size()) return {};
  return t.texts[id.index];
}

std::size_t note_count() {
  NoteTable& t = table();
  const util::MutexLock lock(t.mu);
  return t.texts.size();
}

std::string Note::text() const {
  std::string out(note_text(id));
  if (has_arg) out += std::to_string(arg);
  return out;
}

}  // namespace cloudfog::obs

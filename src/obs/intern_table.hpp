// Process-wide string interning behind the observability vocabularies:
// trace notes (obs/note_table.cpp) and counter, gauge, histogram and phase
// names (obs/registry.cpp, obs/phase_profiler.cpp). Private to src/obs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "util/annotations.hpp"

namespace cloudfog::obs {

/// Append-only, thread-safe string interning. The same text always yields
/// the same dense index; `Payload` is fixed by the first interning of a
/// text (later calls with another payload get the original). Texts are
/// never moved, so text() views stay valid for the table's lifetime.
template <typename Payload = std::monostate>
class InternTable {
 public:
  std::uint32_t intern(std::string_view text, const Payload& payload = {}) {
    const util::MutexLock lock(mu_);
    const auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
    const auto index = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back(std::string(text), payload);
    ids_.emplace(std::string(text), index);
    return index;
  }

  /// Index of `text`, or size() if it was never interned.
  std::uint32_t find(std::string_view text) const {
    const util::MutexLock lock(mu_);
    const auto it = ids_.find(text);
    return it == ids_.end() ? static_cast<std::uint32_t>(entries_.size()) : it->second;
  }

  std::string_view text(std::uint32_t index) const {
    const util::MutexLock lock(mu_);
    return index < entries_.size() ? std::string_view(entries_[index].first)
                                   : std::string_view{};
  }

  Payload payload(std::uint32_t index) const {
    const util::MutexLock lock(mu_);
    return entries_.at(index).second;
  }

 private:
  mutable util::Mutex mu_;
  // std::map (not unordered) keeps lookups deterministic-friendly and the
  // table is never iterated on a hot path; std::deque gives stable storage.
  std::map<std::string, std::uint32_t, std::less<>> ids_ CF_GUARDED_BY(mu_);
  std::deque<std::pair<std::string, Payload>> entries_ CF_GUARDED_BY(mu_);
};

}  // namespace cloudfog::obs

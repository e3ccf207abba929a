// Minimal JSON emission for the observability exports (run reports and
// JSONL traces). Writing only — the simulator never consumes JSON — so a
// small append-style writer keeps the subsystem dependency-free.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

namespace cloudfog::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters; UTF-8 passes through untouched).
std::string json_escape(std::string_view s);

/// Formats a double as JSON: finite values via shortest round-trip
/// formatting, non-finite values as null (JSON has no NaN/Inf).
std::string json_number(double v);

/// Append-style writer for one JSON document. The caller is responsible
/// for well-formedness of the nesting; the writer handles separators,
/// quoting and indentation.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits `"key":` inside an object (with any needed separator).
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double v);
  void value(std::uint64_t v);

  template <typename T>
  void field(std::string_view k, T&& v) {
    key(k);
    value(std::forward<T>(v));
  }

 private:
  void separator();

  std::ostream& os_;
  /// Per-depth flag: has the current container already emitted an element?
  std::string stack_;  // 'f' = fresh container, 'e' = has elements
  bool pending_key_ = false;
};

}  // namespace cloudfog::obs

#include "obs/json.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace cloudfog::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x", static_cast<unsigned>(c));
          out += buf.data();
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::array<char, 32> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  if (ec != std::errc{}) return "null";
  return std::string(buf.data(), ptr);
}

void JsonWriter::separator() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted any needed comma
  }
  if (!stack_.empty()) {
    if (stack_.back() == 'e') os_ << ',';
    stack_.back() = 'e';
  }
}

void JsonWriter::begin_object() {
  separator();
  os_ << '{';
  stack_.push_back('f');
}

void JsonWriter::end_object() {
  stack_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  separator();
  os_ << '[';
  stack_.push_back('f');
}

void JsonWriter::end_array() {
  stack_.pop_back();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  if (!stack_.empty()) {
    if (stack_.back() == 'e') os_ << ',';
    stack_.back() = 'e';
  }
  os_ << '"' << json_escape(k) << "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  separator();
  os_ << '"' << json_escape(s) << '"';
}

void JsonWriter::value(double v) {
  separator();
  os_ << json_number(v);
}

void JsonWriter::value(std::uint64_t v) {
  separator();
  os_ << v;
}

}  // namespace cloudfog::obs

// Minimal command-line flag parser for the tools and benchmarks.
//
// Supports `--flag`, `--key value` and `--key=value`, plus positional
// arguments. Unknown flags are an error by default so typos surface
// immediately; lookups are typed with defaults.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace cloudfog::util {

class CliArgs {
 public:
  /// Parses argv. Throws ConfigError on malformed input (an option with
  /// a missing value is fine — it becomes a boolean flag).
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }

  /// Positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& key) const;

  /// Raw value; nullopt for absent keys or bare boolean flags.
  std::optional<std::string> value(const std::string& key) const;

  /// Typed lookups; throw ConfigError if present but unparsable.
  std::string get_string(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Keys seen on the command line (for unknown-flag validation).
  const std::vector<std::string>& keys() const { return keys_; }

  /// Throws ConfigError if any parsed key is not in `allowed`.
  void require_known(const std::vector<std::string>& allowed) const;

 private:
  std::string program_;
  std::vector<std::string> positional_;
  std::vector<std::string> keys_;
  std::vector<std::pair<std::string, std::optional<std::string>>> options_;
};

}  // namespace cloudfog::util

#include "util/cli.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/require.hpp"

namespace cloudfog::util {

CliArgs::CliArgs(int argc, const char* const* argv) {
  CLOUDFOG_REQUIRE(argc >= 1, "argv must at least hold the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    CLOUDFOG_REQUIRE(arg.size() > 2, "bare '--' is not a valid option");
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      CLOUDFOG_REQUIRE(!key.empty(), "option with empty name");
      keys_.push_back(key);
      options_.emplace_back(key, body.substr(eq + 1));
      continue;
    }
    // `--key value` when the next token is not itself an option;
    // otherwise a boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      keys_.push_back(body);
      options_.emplace_back(body, std::string(argv[++i]));
    } else {
      keys_.push_back(body);
      options_.emplace_back(body, std::nullopt);
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return std::any_of(options_.begin(), options_.end(),
                     [&key](const auto& kv) { return kv.first == key; });
}

std::optional<std::string> CliArgs::value(const std::string& key) const {
  // Last occurrence wins, so `--seed 1 --seed 2` behaves predictably.
  std::optional<std::string> found;
  for (const auto& [k, v] : options_) {
    if (k == key) found = v;
  }
  return found;
}

std::string CliArgs::get_string(const std::string& key, const std::string& fallback) const {
  const auto v = value(key);
  return v.has_value() ? *v : fallback;
}

std::int64_t CliArgs::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = value(key);
  if (!v.has_value()) return fallback;
  char* end = nullptr;
  const std::int64_t parsed = std::strtoll(v->c_str(), &end, 10);
  CLOUDFOG_REQUIRE(end != nullptr && *end == '\0' && !v->empty(),
                   "option --" + key + " expects an integer, got '" + *v + "'");
  return parsed;
}

bool CliArgs::get_bool(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const auto v = value(key);
  if (!v.has_value()) return true;  // bare flag
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  CLOUDFOG_REQUIRE(false, "option --" + key + " expects a boolean, got '" + *v + "'");
  return fallback;  // unreachable
}

void CliArgs::require_known(const std::vector<std::string>& allowed) const {
  for (const auto& key : keys_) {
    CLOUDFOG_REQUIRE(std::find(allowed.begin(), allowed.end(), key) != allowed.end(),
                     "unknown option --" + key);
  }
}

}  // namespace cloudfog::util

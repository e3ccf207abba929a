#include "scenario/scenario_spec.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/cycle_config.hpp"
#include "util/table.hpp"

namespace cloudfog::scenario {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

/// Parser state threaded through the per-line handlers.
struct ParseCtx {
  ScenarioSpec* spec = nullptr;
  std::string section;  ///< current [section], "" = top level
  int line_no = 0;
  std::string* error = nullptr;

  bool fail(const std::string& what) {
    *error = "line " + std::to_string(line_no) + ": " + what;
    return false;
  }
};

bool parse_double(ParseCtx& ctx, const std::string& value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    return ctx.fail("expected a number, got '" + value + "'");
  }
  *out = v;
  return true;
}

bool parse_int(ParseCtx& ctx, const std::string& value, int* out) {
  double v = 0.0;
  if (!parse_double(ctx, value, &v)) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_size(ParseCtx& ctx, const std::string& value, std::size_t* out) {
  double v = 0.0;
  if (!parse_double(ctx, value, &v)) return false;
  if (v < 0.0) return ctx.fail("expected a non-negative count, got '" + value + "'");
  *out = static_cast<std::size_t>(v);
  return true;
}

bool parse_u64(ParseCtx& ctx, const std::string& value, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return ctx.fail("expected an unsigned integer, got '" + value + "'");
  }
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_bool(ParseCtx& ctx, const std::string& value, bool* out) {
  if (value == "true" || value == "on" || value == "1") {
    *out = true;
    return true;
  }
  if (value == "false" || value == "off" || value == "0") {
    *out = false;
    return true;
  }
  return ctx.fail("expected true/false, got '" + value + "'");
}

bool handle_top(ParseCtx& ctx, const std::string& key, const std::string& value) {
  ScenarioSpec& s = *ctx.spec;
  if (key == "name") s.name = value;
  else if (key == "description") s.description = value;
  else if (key == "profile") {
    if (value == "peersim") s.profile = core::TestbedProfile::kPeerSim;
    else if (value == "planetlab") s.profile = core::TestbedProfile::kPlanetLab;
    else return ctx.fail("unknown profile '" + value + "' (peersim|planetlab)");
  } else if (key == "players") return parse_size(ctx, value, &s.players);
  else if (key == "supernodes") return parse_size(ctx, value, &s.supernodes);
  else if (key == "cycles") return parse_int(ctx, value, &s.cycles);
  else if (key == "warmup") return parse_int(ctx, value, &s.warmup);
  else if (key == "seed") return parse_u64(ctx, value, &s.seed);
  else if (key == "system_seed") return parse_u64(ctx, value, &s.system_seed);
  else if (key == "workload") {
    if (value == "arrivals") s.daily_sessions = false;
    else if (value == "daily") s.daily_sessions = true;
    else return ctx.fail("unknown workload '" + value + "' (arrivals|daily)");
  } else if (key == "base_arrival_per_minute") {
    return parse_double(ctx, value, &s.base_arrival_per_minute);
  } else if (key == "faults_per_hour") return parse_double(ctx, value, &s.faults_per_hour);
  else if (key == "selection_deadline_ms") {
    return parse_double(ctx, value, &s.selection_deadline_ms);
  } else if (key == "reputation") return parse_bool(ctx, value, &s.reputation);
  else if (key == "rate_adaptation") return parse_bool(ctx, value, &s.rate_adaptation);
  else if (key == "social_assignment") return parse_bool(ctx, value, &s.social_assignment);
  else if (key == "provisioning") return parse_bool(ctx, value, &s.provisioning);
  else return ctx.fail("unknown key '" + key + "'");
  return true;
}

bool handle_flash_crowd(ParseCtx& ctx, const std::string& key, const std::string& value) {
  FlashCrowdPhase& p = ctx.spec->flash_crowd.emplace(
      ctx.spec->flash_crowd.value_or(FlashCrowdPhase{}));
  if (key == "start_hour") return parse_int(ctx, value, &p.start_hour);
  if (key == "ramp_hours") return parse_int(ctx, value, &p.ramp_hours);
  if (key == "plateau_hours") return parse_int(ctx, value, &p.plateau_hours);
  if (key == "decay_hours") return parse_int(ctx, value, &p.decay_hours);
  if (key == "peak_per_minute") return parse_double(ctx, value, &p.peak_per_minute);
  return ctx.fail("unknown flash-crowd key '" + key + "'");
}

bool handle_diurnal(ParseCtx& ctx, const std::string& key, const std::string& value) {
  DiurnalPhase& p = ctx.spec->diurnal.emplace(ctx.spec->diurnal.value_or(DiurnalPhase{}));
  if (key == "regions") return parse_int(ctx, value, &p.regions);
  if (key == "stagger_hours") return parse_double(ctx, value, &p.stagger_hours);
  if (key == "amplitude_per_minute") return parse_double(ctx, value, &p.amplitude_per_minute);
  return ctx.fail("unknown diurnal key '" + key + "'");
}

bool handle_churn_storm(ParseCtx& ctx, const std::string& key, const std::string& value) {
  ChurnStormPhase& p =
      ctx.spec->churn_storm.emplace(ctx.spec->churn_storm.value_or(ChurnStormPhase{}));
  if (key == "start_hour") return parse_int(ctx, value, &p.start_hour);
  if (key == "duration_hours") return parse_int(ctx, value, &p.duration_hours);
  if (key == "departure_fraction") return parse_double(ctx, value, &p.departure_fraction);
  if (key == "pause_arrivals") return parse_bool(ctx, value, &p.pause_arrivals);
  return ctx.fail("unknown churn-storm key '" + key + "'");
}

bool handle_outage(ParseCtx& ctx, const std::string& key, const std::string& value) {
  OutagePhase& p = ctx.spec->outage.emplace(ctx.spec->outage.value_or(OutagePhase{}));
  if (key == "start_hour") return parse_int(ctx, value, &p.start_hour);
  if (key == "duration_hours") return parse_int(ctx, value, &p.duration_hours);
  if (key == "x0_km") return parse_double(ctx, value, &p.box.x0_km);
  if (key == "y0_km") return parse_double(ctx, value, &p.box.y0_km);
  if (key == "x1_km") return parse_double(ctx, value, &p.box.x1_km);
  if (key == "y1_km") return parse_double(ctx, value, &p.box.y1_km);
  if (key == "crash_fraction") return parse_double(ctx, value, &p.crash_fraction);
  if (key == "loss_fraction") return parse_double(ctx, value, &p.loss_fraction);
  if (key == "delay_ms") return parse_double(ctx, value, &p.delay_ms);
  if (key == "partition") return parse_bool(ctx, value, &p.partition);
  return ctx.fail("unknown outage key '" + key + "'");
}

bool handle_adversary(ParseCtx& ctx, const std::string& key, const std::string& value) {
  AdversaryConfig& a = ctx.spec->adversary;
  if (key == "kind") {
    if (!adversary_kind_from_name(value, &a.kind)) {
      return ctx.fail("unknown adversary kind '" + value + "'");
    }
    return true;
  }
  if (key == "fraction") return parse_double(ctx, value, &a.fraction);
  if (key == "delay_ms") return parse_double(ctx, value, &a.delay_ms);
  if (key == "period_cycles") return parse_int(ctx, value, &a.period_cycles);
  if (key == "on_cycles") return parse_int(ctx, value, &a.on_cycles);
  if (key == "whitewash_period_cycles") {
    return parse_int(ctx, value, &a.whitewash_period_cycles);
  }
  if (key == "ring_count") return parse_int(ctx, value, &a.ring_count);
  return ctx.fail("unknown adversary key '" + key + "'");
}

bool handle_mix(ParseCtx& ctx, const std::string& key, const std::string& value) {
  // game.N = weight
  if (key.rfind("game.", 0) != 0) return ctx.fail("mix keys look like game.<index>");
  std::size_t idx = 0;
  {
    ParseCtx sub = ctx;  // reuse the numeric parser with the same line number
    if (!parse_size(sub, key.substr(5), &idx)) return ctx.fail("bad game index in '" + key + "'");
  }
  double weight = 0.0;
  if (!parse_double(ctx, value, &weight)) return false;
  if (ctx.spec->game_mix.size() <= idx) ctx.spec->game_mix.resize(idx + 1, 0.0);
  ctx.spec->game_mix[idx] = weight;
  return true;
}

bool handle_envelope(ParseCtx& ctx, const std::string& key, const std::string& value) {
  // <metric>.min / <metric>.max
  const std::size_t dot = key.rfind('.');
  if (dot == std::string::npos) {
    return ctx.fail("envelope keys look like <metric>.min or <metric>.max");
  }
  const std::string metric = key.substr(0, dot);
  const std::string edge = key.substr(dot + 1);
  if (!is_scenario_metric(metric)) {
    return ctx.fail("unknown envelope metric '" + metric + "'");
  }
  double bound = 0.0;
  if (!parse_double(ctx, value, &bound)) return false;
  if (edge == "min") ctx.spec->envelope.require_min(metric, bound);
  else if (edge == "max") ctx.spec->envelope.require_max(metric, bound);
  else return ctx.fail("envelope edge must be min or max, got '" + edge + "'");
  return true;
}

bool validate(ParseCtx& ctx) {
  const ScenarioSpec& s = *ctx.spec;
  if (s.players == 0) return ctx.fail("players must be positive");
  if (s.supernodes == 0) return ctx.fail("supernodes must be positive");
  if (s.cycles < 1) return ctx.fail("cycles must be >= 1");
  if (s.warmup < 0 || s.warmup >= s.cycles) {
    return ctx.fail("warmup must leave at least one measured cycle");
  }
  if (s.base_arrival_per_minute < 0.0) return ctx.fail("arrival rate must be >= 0");
  if (s.faults_per_hour < 0.0) return ctx.fail("faults_per_hour must be >= 0");
  if (s.adversary.fraction < 0.0 || s.adversary.fraction > 1.0) {
    return ctx.fail("adversary fraction must be within [0, 1]");
  }
  const int horizon_hours = s.cycles * sim::CycleConfig::subcycles_per_cycle;
  if (s.outage &&
      (s.outage->start_hour < 0 || s.outage->start_hour >= horizon_hours ||
       s.outage->duration_hours < 1)) {
    return ctx.fail("outage window must fit the run horizon");
  }
  if (s.churn_storm &&
      (s.churn_storm->start_hour < 0 || s.churn_storm->start_hour >= horizon_hours)) {
    return ctx.fail("churn storm must start inside the run horizon");
  }
  return true;
}

}  // namespace

bool parse_scenario(const std::string& text, ScenarioSpec* out, std::string* error) {
  *out = ScenarioSpec{};
  ParseCtx ctx;
  ctx.spec = out;
  ctx.error = error;

  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++ctx.line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') return ctx.fail("unterminated section header");
      ctx.section = trim(line.substr(1, line.size() - 2));
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) return ctx.fail("expected key = value");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) return ctx.fail("empty key");

    bool ok = false;
    if (ctx.section.empty()) ok = handle_top(ctx, key, value);
    else if (ctx.section == "phase.flash_crowd") ok = handle_flash_crowd(ctx, key, value);
    else if (ctx.section == "phase.diurnal") ok = handle_diurnal(ctx, key, value);
    else if (ctx.section == "phase.churn_storm") ok = handle_churn_storm(ctx, key, value);
    else if (ctx.section == "phase.outage") ok = handle_outage(ctx, key, value);
    else if (ctx.section == "adversary") ok = handle_adversary(ctx, key, value);
    else if (ctx.section == "mix") ok = handle_mix(ctx, key, value);
    else if (ctx.section == "envelope") ok = handle_envelope(ctx, key, value);
    else return ctx.fail("unknown section [" + ctx.section + "]");
    if (!ok) return false;
  }
  return validate(ctx);
}

bool load_scenario_file(const std::string& path, ScenarioSpec* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!parse_scenario(buf.str(), out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

ScenarioSpec chaos_scenario(core::TestbedProfile profile, double faults_per_hour,
                            const core::ExperimentScale& scale) {
  ScenarioSpec spec;
  spec.name = "chaos-" + util::format_double(faults_per_hour, 2);
  spec.description = "Mixed background fault schedule at a fixed arrival rate";
  spec.profile = profile;
  const core::TestbedConfig tb = profile == core::TestbedProfile::kPeerSim
                                     ? core::TestbedConfig::peersim()
                                     : core::TestbedConfig::planetlab();
  spec.players = tb.player_count;
  spec.supernodes = profile == core::TestbedProfile::kPeerSim ? 600 : 30;
  spec.cycles = scale.cycles;
  spec.warmup = scale.warmup;
  spec.seed = scale.seed;
  // A fixed offset: the chaos table and its pinned trace are drawn from it.
  spec.system_seed = scale.seed + 81;
  spec.daily_sessions = true;
  spec.reputation = spec.rate_adaptation = true;
  spec.social_assignment = spec.provisioning = true;  // cloudfog_advanced_config
  spec.selection_deadline_ms = 700.0;
  spec.faults_per_hour = faults_per_hour;
  return spec;
}

}  // namespace cloudfog::scenario

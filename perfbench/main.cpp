// Repository benchmark program: times the CloudFog library's public API on
// three closed-loop workloads (each call starts when the previous one
// returns) and checks every simulated output.
//
//   perfbench --workload <figures|daily-social|arrival-chaos> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//   perfbench --self-test
//
// --trace 0 measures the end-to-end metrics; --trace 1 alternates untraced
// and traced iterations and reports the per-layer metrics (layers.json
// maps each one to the end-to-end metric it should move). The last stdout
// line is one JSON object; perfbench/run.py builds this binary, attaches
// units and prints the final result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/recorder.hpp"
#include "social/community_partitioner.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

namespace core = cloudfog::core;
namespace obs = cloudfog::obs;
namespace social = cloudfog::social;
namespace util = cloudfog::util;
using perfbench::Checks;
using perfbench::Digest;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

enum class Workload { kFigures, kDailySocial, kArrivalChaos };

struct Options {
  Workload workload = Workload::kFigures;
  std::string workload_name;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool self_test_only = false;
  std::string spans_path;
};

// ---- Spans ----------------------------------------------------------------
// Recorded around each public call from the benchmark's side (the library
// has no spans of its own yet). Kept in memory, aggregated per iteration,
// and written out as JSONL at the end when --spans is given.

struct Span {
  const char* name;
  double start_ms;
  double end_ms;
  int parent;     ///< index of the enclosing span, -1 for an iteration root
  int iteration;  ///< spans of one iteration share this id
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_iteration(int i) { iteration_ = i; }
  std::size_t size() const { return spans_.size(); }

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ms(), 0.0, parent, iteration_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    stack_.pop_back();
  }

  /// Total and max duration per span name, over spans recorded since `from`.
  void aggregate(std::size_t from, Metrics& total_ms, Metrics& max_ms) const {
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const double d = spans_[i].end_ms - spans_[i].start_ms;
      total_ms[spans_[i].name] += d;
      max_ms[spans_[i].name] = std::max(max_ms[spans_[i].name], d);
    }
  }

  void write_jsonl(std::ostream& os) const {
    os << std::setprecision(17);
    for (const Span& s : spans_) {
      os << "{\"name\":\"" << s.name << "\",\"iteration\":" << s.iteration
         << ",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
         << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  double now_ms() const { return ms_between(origin_, Clock::now()); }

  bool enabled_ = false;
  int iteration_ = 0;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; free when the log is disabled.
class Scope {
 public:
  Scope(SpanLog& log, const char* name)
      : log_(log.enabled() ? &log : nullptr), id_(log_ != nullptr ? log.open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---- One iteration of a workload ------------------------------------------

/// What one iteration produced, beyond the checks it counted.
struct Iteration {
  double setup_ms = 0.0;         ///< Testbed + System construction (cells)
  double wall_ms = 0.0;          ///< the simulated schedule, set-up excluded
  std::vector<double> call_ms;   ///< one sample per timed public call
  std::uint64_t player_hours = 0;
  std::uint64_t digest = 0;
  std::uint64_t trace_pushed = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t trace_kept = 0;
  Metrics layers;  ///< per-layer values that are not spans or recorder reads
};

constexpr std::size_t kPlayers = 10000;
constexpr std::size_t kSupernodes = 600;
constexpr std::size_t kSetupSamples = 7;
constexpr std::size_t kCellSubSeeds = 4;

core::SystemConfig cell_config(Workload w, const core::Testbed& tb) {
  if (w != Workload::kArrivalChaos) return core::cloudfog_advanced_config(tb, kSupernodes);
  // Figs. 13-15 at the top of the PeerSim sweep: SARIMA provisioning over a
  // fixed pool of 400, plus background chaos over the paper schedule.
  core::SystemConfig cfg = core::cloudfog_basic_config(tb, kSupernodes);
  cfg.workload = core::WorkloadMode::kArrivalRates;
  cfg.arrivals = core::ArrivalWorkload{5.0, 60.0};
  cfg.fixed_deployment = 400;
  cfg.strategies.provisioning = true;
  cfg.faults.enabled = true;
  cfg.faults.faults_per_hour = 5.0;
  const cloudfog::sim::CycleConfig cycles;
  cfg.faults.horizon_s =
      static_cast<double>(cycles.total_cycles * cycles.subcycles_per_cycle) *
      cycles.subcycle_seconds;
  return cfg;
}

/// A testbed and the system built on it; construction is the set-up.
struct Cell {
  std::unique_ptr<core::Testbed> tb;
  std::unique_ptr<core::System> sys;
  double setup_ms = 0.0;
};

/// For figures, the construction they pay in every cell, on their heaviest
/// one: the 10k-player PeerSim CloudFog/A cell, seeded as population_sweep
/// seeds it.
Cell build_cell(Workload w, std::uint64_t seed, SpanLog& spans) {
  const bool figures = w == Workload::kFigures;
  Cell cell;
  const auto t0 = Clock::now();
  {
    const Scope s(spans, "testbed.build");
    cell.tb = std::make_unique<core::Testbed>(core::TestbedConfig::peersim(kPlayers),
                                              figures ? seed + kPlayers : seed);
  }
  {
    const Scope s(spans, "system.construct");
    cell.sys = std::make_unique<core::System>(*cell.tb, cell_config(w, *cell.tb),
                                              figures ? seed + 5 : seed + 1);
  }
  cell.setup_ms = ms_between(t0, Clock::now());
  return cell;
}

/// One CloudFog cell at 10k players and 600 supernodes, driven call by
/// call over the paper schedule (28 cycles, 21 warm-up).
Iteration run_cell(Workload w, std::uint64_t seed, SpanLog& spans, Checks& checks) {
  Iteration out;
  const Scope root(spans,
                   w == Workload::kDailySocial ? "cell.daily-social" : "cell.arrival-chaos");
  const Cell cell = build_cell(w, seed, spans);
  const auto& tb = cell.tb;
  const auto& sys = cell.sys;
  out.setup_ms = cell.setup_ms;

  const cloudfog::sim::CycleConfig cycles;
  std::vector<core::SubcycleQos> outputs;
  outputs.reserve(static_cast<std::size_t>(cycles.total_cycles * cycles.subcycles_per_cycle));
  out.call_ms.reserve(outputs.capacity());
  std::size_t drained = 0;

  const auto w0 = Clock::now();
  for (int day = 1; day <= cycles.total_cycles; ++day) {
    const bool warmup = day <= cycles.warmup_cycles;
    {
      const Scope s(spans, "system.begin_cycle");
      sys->begin_cycle(day);
    }
    for (int sub = 1; sub <= cycles.subcycles_per_cycle; ++sub) {
      const bool peak = sub >= cycles.peak_start_subcycle && sub <= cycles.peak_end_subcycle;
      const Scope s(spans, "system.run_subcycle");
      const auto a = Clock::now();
      outputs.push_back(sys->run_subcycle(day, sub, warmup, peak));
      out.call_ms.push_back(ms_between(a, Clock::now()));
    }
    {
      const Scope s(spans, "system.end_cycle");
      sys->end_cycle(day);
    }
  }
  if (w == Workload::kArrivalChaos) {
    const Scope s(spans, "system.drain_sessions");
    drained = sys->drain_sessions();
  }
  out.wall_ms = ms_between(w0, Clock::now());

  Digest digest;
  for (const core::SubcycleQos& qos : outputs) {
    perfbench::check_subcycle(qos, checks, digest);
    out.player_hours += qos.online_sessions;
  }
  perfbench::digest_run_metrics(sys->metrics(), digest);
  if (w == Workload::kArrivalChaos) {
    digest.u64(drained);
    for (const core::SupernodeState& sn : sys->fleet()) {
      checks.expect(sn.served == 0, "supernode reports a served seat after drain_sessions");
      digest.u64(static_cast<std::uint64_t>(sn.served));
    }
  }
  out.digest = digest.value();

  // The weekly reassignments are the only in-cell partitioner runs that
  // leave a public trace (one wall-clock sample each).
  out.layers["social.in_cell_reassigns"] =
      static_cast<double>(sys->metrics().server_assignment_seconds.count());
  out.layers["social.assignment_enabled"] = sys->config().strategies.social_assignment ? 1 : 0;

  if (spans.enabled() && sys->config().strategies.social_assignment) {
    // One isolated partition of the testbed graph with the cell's settings
    // and its own rng, so the partitioner's cost is visible on its own.
    social::PartitionerConfig pc;
    pc.communities = static_cast<int>(tb->config().datacenter_count) *
                     tb->config().servers_per_datacenter;
    pc.max_swap_trials = sys->config().partitioner_swap_trials;
    pc.max_consecutive_miss = sys->config().partitioner_miss_limit;
    const social::CommunityPartitioner partitioner(pc);
    util::Rng rng(util::splitmix64(seed ^ util::hash64("perfbench.partition")));
    const Scope s(spans, "social.partition");
    const social::PartitionerResult r = partitioner.partition(tb->social_graph(), rng);
    out.layers["social.partition_swap_trials"] = r.swap_trials;
    out.layers["social.partition_accepted_swaps"] = r.accepted_swaps;
    out.layers["social.partition_accept_frac"] =
        r.swap_trials > 0 ? static_cast<double>(r.accepted_swaps) / r.swap_trials : 0.0;
  }
  return out;
}

/// Sub-seed k of a run's seed; sub-seed 0 is the seed itself.
std::uint64_t sub_seed(std::uint64_t seed, std::size_t k) {
  return k == 0 ? seed : util::splitmix64(seed + k);
}

constexpr std::size_t kPlanetLabPlayers[] = {150, 300, 450, 600, 750};

/// The sweeps' seed for a run seed: its first sub-seed whose PlanetLab
/// population testbeds the library accepts. At 150 players (4 % of them
/// supernode-capable) about 1 seed in 450 draws none, and the Testbed
/// refuses it with a ConfigError; every other testbed of the sweeps has
/// 750 or more players.
std::uint64_t figures_seed(std::uint64_t seed) {
  for (std::size_t k = 0;; ++k) {
    const std::uint64_t s = sub_seed(seed, k);
    try {
      for (std::size_t n : kPlanetLabPlayers) {
        const core::Testbed tb(core::TestbedConfig::planetlab(n), s + n);
      }
      return s;
    } catch (const cloudfog::ConfigError&) {
      // Rejected input: try the next sub-seed.
    }
  }
}

/// Figs. 6-8, 12 and 13-15 at default scale, with the sweep calls and
/// arguments of the figure binaries and the recorder on without a trace
/// sink, as those binaries run by default.
Iteration run_figures(std::uint64_t seed, SpanLog& spans, Checks& checks) {
  using core::TestbedProfile;
  using perfbench::TableRule;
  Iteration out;
  auto& rec = obs::Recorder::global();
  rec.reset();  // each figure binary starts from a fresh recorder
  rec.set_enabled(true);

  core::ExperimentScale scale;
  scale.seed = figures_seed(seed);
  core::ExperimentScale prov_scale = core::ExperimentScale::provisioning();
  prov_scale.seed = scale.seed;

  const Scope root(spans, "figures");
  const auto timed = [&](const char* name, auto&& call) {
    const Scope s(spans, name);
    const auto a = Clock::now();
    auto result = call();
    out.call_ms.push_back(ms_between(a, Clock::now()));
    return result;
  };
  const auto w0 = Clock::now();
  const auto pop_peersim = timed("experiment.population_sweep", [&] {
    return core::population_sweep(TestbedProfile::kPeerSim, {2000, 4000, 6000, 8000, 10000},
                                  scale);
  });
  const auto pop_planetlab = timed("experiment.population_sweep", [&] {
    return core::population_sweep(TestbedProfile::kPlanetLab,
                                  std::vector<std::size_t>(std::begin(kPlanetLabPlayers),
                                                           std::end(kPlanetLabPlayers)),
                                  scale);
  });
  const auto sa_peersim = timed("experiment.server_assignment_sweep", [&] {
    return core::server_assignment_sweep(TestbedProfile::kPeerSim, {5, 10, 15, 20, 25}, scale);
  });
  const auto sa_planetlab = timed("experiment.server_assignment_sweep", [&] {
    return core::server_assignment_sweep(TestbedProfile::kPlanetLab, {5, 10, 15, 20, 25},
                                         scale);
  });
  const auto prov_peersim = timed("experiment.provisioning_sweep", [&] {
    return core::provisioning_sweep(TestbedProfile::kPeerSim, {10, 20, 30, 40, 50, 60},
                                    prov_scale);
  });
  const auto prov_planetlab = timed("experiment.provisioning_sweep", [&] {
    return core::provisioning_sweep(TestbedProfile::kPlanetLab, {2, 3, 4, 5, 6, 7}, prov_scale);
  });
  out.wall_ms = ms_between(w0, Clock::now());

  Digest digest;
  // PlanetLab rows of 150-450 players have only 6-18 supernode-capable
  // nodes, so a single row's CloudFog/Cloud ordering flips on some seeds
  // (Fig. 7 at 150 players on about 1 seed in 70); there the orderings
  // are checked on the sweep means.
  perfbench::check_table(pop_peersim.bandwidth, TableRule::kFogEgressBelowCloud, checks, digest);
  perfbench::check_table(pop_peersim.latency, TableRule::kFogALatencyBelowCloud, checks, digest);
  perfbench::check_table(pop_planetlab.bandwidth, TableRule::kFogEgressBelowCloudOnMean, checks,
                         digest);
  perfbench::check_table(pop_planetlab.latency, TableRule::kFogALatencyBelowCloudOnMean, checks,
                         digest);
  for (const auto* pop : {&pop_peersim, &pop_planetlab}) {
    perfbench::check_table(pop->continuity, TableRule::kContinuityInUnit, checks, digest);
  }
  for (const auto* sa : {&sa_peersim, &sa_planetlab}) {
    perfbench::check_table(*sa, TableRule::kServerAssignmentHelps, checks, digest);
  }
  for (const auto* prov : {&prov_peersim, &prov_planetlab}) {
    perfbench::check_table(prov->bandwidth, TableRule::kFiniteOnly, checks, digest);
    perfbench::check_table(prov->latency, TableRule::kFiniteOnly, checks, digest);
    perfbench::check_table(prov->continuity, TableRule::kContinuityInUnit, checks, digest);
  }
  out.digest = digest.value();

  // Sweeps expose only their measured (post-warm-up) subcycles, through
  // the recorder's per-run summaries.
  double measured_sessions = 0.0;
  for (const obs::RunSummary& run : rec.runs()) {
    for (const obs::StatSummary& s : run.stats) {
      if (s.name == "online_sessions") measured_sessions += s.mean * static_cast<double>(s.count);
    }
  }
  out.player_hours = static_cast<std::uint64_t>(std::llround(measured_sessions));

  const obs::TraceBuffer& buf = rec.trace_buffer();
  out.trace_pushed = buf.total_pushed();
  out.trace_dropped = buf.dropped();
  out.trace_kept = buf.total_pushed() - buf.dropped() - buf.sampled_out() - buf.aggregated();
  return out;
}

Iteration run_iteration(Workload w, std::uint64_t seed, SpanLog& spans, Checks& checks) {
  if (w == Workload::kFigures) return run_figures(seed, spans, checks);
  // The cells run with the recorder off; a traced iteration turns it on to
  // read the library's own phase profile and counters.
  auto& rec = obs::Recorder::global();
  rec.reset();
  rec.set_enabled(spans.enabled());
  const std::uint64_t pushed_before = rec.trace_buffer().total_pushed();
  Iteration it = run_cell(w, seed, spans, checks);
  it.trace_pushed = rec.trace_buffer().total_pushed() - pushed_before;
  rec.set_enabled(false);
  return it;
}

/// The library's own (inclusive, flat) phase profile and counters for the
/// iteration just run.
void read_recorder(Metrics& m) {
  const obs::Recorder& rec = obs::Recorder::global();
  const auto phase = [&](const char* phase_name, const std::string& key, bool calls) {
    const auto* p = rec.profiler().find(phase_name);
    m["phase." + key + "_ms"] = p != nullptr ? p->total_ms() : 0.0;
    if (calls) m["phase." + key + "_calls"] = p != nullptr ? static_cast<double>(p->count) : 0.0;
  };
  phase("fog.discovery", "fog.discovery", true);
  phase("fog.probe", "fog.probe", true);
  phase("population", "population", false);
  phase("social.cross_server", "social.cross_server", false);
  phase("qos.subcycle", "qos.subcycle", false);
  phase("qos.rate_adapt", "qos.rate_adapt", false);
  phase("provisioning", "provisioning", false);
  phase("provision.forecast", "provision.forecast", false);
  phase("provision.deploy", "provision.deploy", false);

  const obs::Registry& reg = rec.registry();
  for (const char* name :
       {"fog.probes_sent", "fog.probes_qualified", "fog.capacity_asks", "fog.claims_granted",
        "fog.cloud_fallbacks", "system.player_joins", "system.cloud_rescues",
        "system.provisioning_rounds", "rate.switch_up", "rate.switch_down", "fault.injected",
        "fault.cleared", "fault.retries", "fault.exhaustions", "system.supernode_failures",
        "system.migrations"}) {
    m[name] = static_cast<double>(reg.counter_value(std::string_view(name)));
  }
  const auto frac = [](double num, double base) { return base > 0.0 ? num / base : 0.0; };
  m["fog.probes_qualified_frac"] = frac(m["fog.probes_qualified"], m["fog.probes_sent"]);
  m["fog.claims_granted_frac"] = frac(m["fog.claims_granted"], m["fog.capacity_asks"]);
}

/// Per-layer values of one traced iteration.
Metrics traced_layers(const Iteration& it, const SpanLog& spans, std::size_t span_mark) {
  Metrics m = it.layers;
  Metrics total_ms;
  Metrics max_ms;
  spans.aggregate(span_mark, total_ms, max_ms);
  for (const char* name :
       {"testbed.build", "system.construct", "system.begin_cycle", "system.end_cycle",
        "system.run_subcycle", "social.partition", "experiment.population_sweep",
        "experiment.server_assignment_sweep", "experiment.provisioning_sweep"}) {
    if (total_ms.count(name) != 0) m[std::string(name) + "_ms"] = total_ms[name];
  }
  if (max_ms.count("system.begin_cycle") != 0) {
    m["system.begin_cycle_max_ms"] = max_ms["system.begin_cycle"];
  }
  read_recorder(m);
  return m;
}

struct Result {
  Metrics metrics;
  std::uint64_t digest = 0;
  int iterations = 0;
  std::string notes;
};

bool deadline_passed(Clock::time_point start, double seconds) {
  return ms_between(start, Clock::now()) >= seconds * 1000.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

Result measure(const Options& opt, SpanLog& spans, Checks& checks) {
  const bool figures = opt.workload == Workload::kFigures;
  Result res;
  // Repeated inputs must reproduce their outputs exactly.
  const auto same_digest = [&](std::optional<std::uint64_t>& expected, const Iteration& it) {
    if (!expected) expected = it.digest;
    checks.expect(it.digest == *expected, "output digest differs between iterations");
  };

  const auto start = Clock::now();
  if (!opt.trace) {
    // End-to-end: everything untraced. A cell's cost depends on its inputs
    // (fault plan, population), so the cells cycle through kCellSubSeeds
    // input sets, after one unmeasured warm-up pass, and report the mean
    // over the sets of each set's median; the figures already average over
    // dozens of cells. Set-up is timed at least kSetupSamples times (extra
    // set-up-only builds top up; for figures, whose set-up happens inside
    // the sweeps, all of them).
    const std::size_t sets = figures ? 1 : kCellSubSeeds;
    std::vector<std::optional<std::uint64_t>> digests(sets);
    std::vector<std::vector<double>> wall_ms(sets);
    std::vector<std::uint64_t> player_hours(sets, 0);
    std::vector<double> setup_ms;
    std::vector<double> call_ms;
    obs::Recorder::global().set_enabled(figures);
    if (!figures) same_digest(digests[0], run_iteration(opt.workload, opt.seed, spans, checks));
    const auto measured_from = Clock::now();
    for (std::size_t i = 0; i < sets || !deadline_passed(measured_from, opt.seconds); ++i) {
      const std::size_t k = i % sets;
      const Iteration it = run_iteration(opt.workload, sub_seed(opt.seed, k), spans, checks);
      same_digest(digests[k], it);
      ++res.iterations;
      if (!figures) setup_ms.push_back(it.setup_ms);
      wall_ms[k].push_back(it.wall_ms);
      call_ms.insert(call_ms.end(), it.call_ms.begin(), it.call_ms.end());
      player_hours[k] = it.player_hours;
    }
    while (setup_ms.size() < kSetupSamples) {
      setup_ms.push_back(build_cell(opt.workload, opt.seed, spans).setup_ms);
    }
    std::ostringstream notes;
    notes << "samples: setup " << setup_ms.size() << ", calls " << call_ms.size() << " ("
          << (figures ? "sweep calls" : "System::run_subcycle") << ")";
    double wall_s = 0.0;
    double hours = 0.0;
    Digest combined;
    for (std::size_t k = 0; k < sets; ++k) {
      wall_s += median(wall_ms[k]) / 1000.0 / static_cast<double>(sets);
      hours += static_cast<double>(player_hours[k]) / static_cast<double>(sets);
      combined.u64(*digests[k]);
      notes << "\n  input set " << k << ": seed " << sub_seed(opt.seed, k) << ", digest "
            << perfbench::hex(*digests[k]) << ", pass wall ms:";
      for (double ms : wall_ms[k]) notes << ' ' << std::fixed << std::setprecision(1) << ms;
    }
    res.notes = notes.str();
    res.digest = sets == 1 ? *digests[0] : combined.value();
    res.metrics["setup_s"] = median(setup_ms) / 1000.0;
    res.metrics["wall_s"] = wall_s;
    res.metrics["sim_player_hours_per_s"] = hours / wall_s;
    res.metrics["call_ms_p50"] = quantile(call_ms, 0.50);
    res.metrics["call_ms_p95"] = quantile(call_ms, 0.95);
    res.metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Per-layer: alternate untraced and traced iterations so both see the
    // same machine state; the wall-time ratio is the tracing overhead.
    std::vector<double> untraced_wall;
    std::vector<double> traced_wall;
    std::vector<Metrics> traced;
    std::optional<std::uint64_t> digest;
    Iteration untraced_it;
    if (figures) {
      obs::Recorder::global().set_enabled(true);
      spans.set_enabled(true);
      const std::size_t mark = spans.size();
      {
        const Scope root(spans, "figures.setup");
        build_cell(opt.workload, opt.seed, spans);
      }
      Metrics total_ms;
      Metrics max_ms;
      spans.aggregate(mark, total_ms, max_ms);
      res.metrics["testbed.build_ms"] = total_ms["testbed.build"];
      res.metrics["system.construct_ms"] = total_ms["system.construct"];
    }
    const int min_pairs = figures ? 1 : 2;
    for (int pair = 0; pair < min_pairs || !deadline_passed(start, opt.seconds); ++pair) {
      spans.set_enabled(false);
      untraced_it = run_iteration(opt.workload, opt.seed, spans, checks);
      same_digest(digest, untraced_it);
      untraced_wall.push_back(untraced_it.wall_ms);

      spans.set_enabled(true);
      spans.set_iteration(pair);
      const std::size_t mark = spans.size();
      const Iteration it = run_iteration(opt.workload, opt.seed, spans, checks);
      same_digest(digest, it);
      traced_wall.push_back(it.wall_ms);
      traced.push_back(traced_layers(it, spans, mark));
      res.iterations += 2;
    }
    for (const auto& [name, _] : traced.front()) {
      std::vector<double> values;
      for (const Metrics& m : traced) values.push_back(m.at(name));
      res.metrics[name] = median(values);
    }
    // Trace accounting as the workload itself runs: the untraced pass.
    const double pushed = static_cast<double>(untraced_it.trace_pushed);
    res.metrics["trace.pushed"] = pushed;
    res.metrics["trace.dropped"] = static_cast<double>(untraced_it.trace_dropped);
    res.metrics["obs.trace_kept_ratio"] =
        pushed > 0.0 ? static_cast<double>(untraced_it.trace_kept) / pushed : 0.0;
    res.metrics["traced_overhead_frac"] = median(traced_wall) / median(untraced_wall) - 1.0;
    res.digest = *digest;
    res.notes = "pairs of untraced/traced iterations: " + std::to_string(traced.size());

    // Layer contrast: each workload must keep exercising (or bypassing)
    // the layers it was chosen for.
    const Metrics& m = res.metrics;
    const double injected = m.at("fault.injected");
    switch (opt.workload) {
      case Workload::kFigures:
        checks.expect(injected == 0.0, "contrast: fault.injected must be 0 on figures");
        checks.expect(pushed > 0.0, "contrast: trace.pushed must be > 0 on figures");
        break;
      case Workload::kDailySocial:
        checks.expect(m.at("social.partition_swap_trials") > 0.0 &&
                          m.at("social.in_cell_reassigns") > 0.0,
                      "contrast: the partitioner must run on daily-social");
        checks.expect(injected == 0.0, "contrast: fault.injected must be 0 on daily-social");
        checks.expect(pushed == 0.0, "contrast: trace.pushed must be 0 on daily-social");
        break;
      case Workload::kArrivalChaos:
        checks.expect(m.at("social.in_cell_reassigns") == 0.0 &&
                          m.at("social.assignment_enabled") == 0.0,
                      "contrast: the partitioner must not run inside arrival-chaos");
        checks.expect(injected > 0.0, "contrast: fault.injected must be > 0 on arrival-chaos");
        checks.expect(pushed == 0.0, "contrast: trace.pushed must be 0 on arrival-chaos");
        break;
    }
  }
  return res;
}

// ---- Command line and environment -----------------------------------------

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      opt.self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload_name = value;
      have_workload = true;
      if (value == "figures") {
        opt.workload = Workload::kFigures;
      } else if (value == "daily-social") {
        opt.workload = Workload::kDailySocial;
      } else if (value == "arrival-chaos") {
        opt.workload = Workload::kArrivalChaos;
      } else {
        return false;
      }
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return opt.self_test_only || have_workload;
}

/// Empty when the build is release-grade; otherwise why it is not.
std::string build_problem() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") return "build type '" + type + "'";
#if !defined(__OPTIMIZE__)
  return "built without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "built with a sanitizer";
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <figures|daily-social|arrival-chaos> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>] | --self-test\n";
    return 2;
  }
  // Each of these silently changes what runs (QoS worker threads, the
  // fault plan), so measuring under them would not be this benchmark.
  for (const char* var : {"CLOUDFOG_THREADS", "CLOUDFOG_FAULT_SEED"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var << " set\n";
      return 3;
    }
  }
  if (const std::string problem = build_problem(); !problem.empty()) {
    std::cerr << "perfbench: refusing a library build that is not release-grade: " << problem
              << '\n';
    return 3;
  }

  std::string self_test_report;
  const bool self_test_ok = perfbench::self_test(&self_test_report);
  std::cout << "self-test of the output checks:\n" << self_test_report;
  if (opt.self_test_only) return self_test_ok ? 0 : 1;

  std::cout << "workload=" << opt.workload_name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0) << '\n'
            << "env: nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " compiler=\""
#if defined(__clang__)
            << "clang "
#elif defined(__GNUC__)
            << "gcc "
#endif
            << __VERSION__
            << "\" build_type=" << PERFBENCH_BUILD_TYPE << " flags=\"" << PERFBENCH_CXX_FLAGS
            << "\" simulation_threads=1\n";

  SpanLog spans;
  Checks checks;
  const Result res = measure(opt, spans, checks);
  if (!opt.spans_path.empty()) {
    std::ofstream os(opt.spans_path);
    spans.write_jsonl(os);
  }

  const bool correct = self_test_ok && checks.failed() == 0;
  std::cout << "iterations: " << res.iterations << "; " << res.notes << '\n'
            << "output_digest=" << perfbench::hex(res.digest) << '\n'
            << "checks: " << checks.attempted() << " run, " << checks.failed()
            << " failed, checks_failed_frac="
            << (checks.attempted() > 0
                    ? static_cast<double>(checks.failed()) / static_cast<double>(checks.attempted())
                    : 0.0)
            << '\n';
  for (const std::string& f : checks.failures()) std::cout << "  FAILED: " << f << '\n';

  std::cout << std::setprecision(17) << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << checks.attempted() << ",\"failed\":" << checks.failed()
            << ",\"output_digest\":\"" << perfbench::hex(res.digest) << "\",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : res.metrics) {
    std::cout << (first ? "" : ",") << '"' << name << "\":" << value;
    first = false;
  }
  std::cout << "}}\n";
  return 0;
}

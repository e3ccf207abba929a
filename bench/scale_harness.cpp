// Tracked scale benchmark (DESIGN.md §10, scripts/bench.sh).
//
// Measures the two hot paths this repo optimises for scale-out, each
// against its in-binary reference implementation so the baseline and the
// optimised numbers come from the same build:
//
//   * candidate discovery — the §3.2 step-1 lookup, linear reference scan
//     (CandidateMode::kLinear) vs the geo-grid index (kGrid), swept over
//     fleet size with every node free, plus a saturated point where only
//     1 % of the nodes has a free seat (the regime §3.5 provisioning runs
//     the fleet in);
//   * end-to-end System subcycle — population churn + demand tallies +
//     QoS pass on the CloudFog arm, reference engine (linear discovery,
//     memoization off) vs the optimised engine (grid + memo), at a
//     fig7-style point and at the 10k-supernode scale-out point.
//
// Both modes produce byte-identical simulation results (the determinism
// gate enforces it); this binary only tracks their cost. Output is a JSON
// document (schema cloudfog.bench_scale/1) merged into BENCH_PR5.json by
// scripts/bench.sh.
//
// A third section measures trace-sink encoding cost (JSONL vs the binary
// format) per event and per byte, against a counting null stream, so the
// "binary tracing is >=3x cheaper" claim is tracked like every other
// headline number.
//
// Usage: bench_scale [--quick] [--json <path>]
//                    [--runstore <dir> --run-id <s> --git-sha <s>
//                     --config-hash <s>]
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"
#include "obs/run_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace cloudfog;

// Wall-clock timing only — this binary never feeds simulation state, so
// the determinism contract does not apply to it.
double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count();
}

struct DiscoveryPoint {
  std::size_t fleet = 0;
  double linear_us = 0.0;  ///< per query
  double grid_us = 0.0;
  double speedup = 0.0;
};

/// Every node is deployed; with `saturated` only every 100th node has a
/// free seat.
DiscoveryPoint bench_discovery(std::size_t fleet_size, bool saturated, int repeats) {
  auto cfg = core::TestbedConfig::peersim(std::max<std::size_t>(fleet_size, 2000));
  cfg.supernode_capable_fraction = 1.0;  // allow fleets beyond the 10 % pool
  const core::Testbed testbed(cfg, 42);
  core::Cloud cloud(testbed.make_datacenters(), testbed.latency(), net::IpLocator{});
  auto fleet = testbed.make_supernode_fleet(fleet_size);
  util::Rng reg_rng(7);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    cloud.register_supernode(fleet[i], reg_rng);
    fleet[i].deployed = true;
    if (saturated && i % 100 != 0) fleet[i].served = fleet[i].capacity;
  }
  const std::size_t queries = 1000;
  std::vector<std::size_t> out;
  DiscoveryPoint point;
  point.fleet = fleet_size;
  for (const bool grid : {false, true}) {
    cloud.set_candidate_mode(grid ? core::CandidateMode::kGrid
                                  : core::CandidateMode::kLinear);
    // Warm once (index build, scratch allocation) outside the timed loop.
    cloud.candidate_supernodes_into(testbed.players()[0].endpoint, fleet, 8, out);
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
      for (std::size_t i = 0; i < queries; ++i) {
        cloud.candidate_supernodes_into(testbed.players()[i].endpoint, fleet, 8, out);
      }
    }
    const double us =
        elapsed_ms(t0) * 1000.0 / (static_cast<double>(repeats) * static_cast<double>(queries));
    (grid ? point.grid_us : point.linear_us) = us;
  }
  point.speedup = point.linear_us / std::max(1e-9, point.grid_us);
  return point;
}

struct SubcyclePoint {
  std::size_t players = 0;
  std::size_t fleet = 0;
  double baseline_ms = 0.0;      ///< linear discovery, memo off
  double optimized_1t_ms = 0.0;  ///< grid + memo
  double speedup_1t = 0.0;
};

double bench_subcycle_arm(const core::Testbed& testbed, std::size_t fleet_size,
                          core::CandidateMode mode, bool memoize, int measured_days) {
  core::SystemConfig cfg;
  cfg.supernode_count = fleet_size;
  cfg.discovery = mode;
  cfg.qos.memoize = memoize;
  core::System system(testbed, cfg, 42);
  const int per_day = testbed.activity().config().subcycles_per_day;
  // One warm-up day (days are 1-based) attaches the steady-state session
  // population.
  system.begin_cycle(1);
  for (int s = 1; s <= per_day; ++s) system.run_subcycle(1, s, true, false);
  system.end_cycle(1);
  const auto t0 = std::chrono::steady_clock::now();
  for (int day = 2; day <= 1 + measured_days; ++day) {
    system.begin_cycle(day);
    for (int s = 1; s <= per_day; ++s) system.run_subcycle(day, s, false, false);
    system.end_cycle(day);
  }
  return elapsed_ms(t0) / static_cast<double>(measured_days * per_day);
}

SubcyclePoint bench_subcycle(std::size_t players, std::size_t fleet_size, int measured_days) {
  fleet_size = std::min(fleet_size, players);  // capable pool bound (quick mode)
  auto tcfg = core::TestbedConfig::peersim(players);
  if (fleet_size > players / 10) tcfg.supernode_capable_fraction = 1.0;
  const core::Testbed testbed(tcfg, 42);
  SubcyclePoint point;
  point.players = players;
  point.fleet = fleet_size;
  point.baseline_ms = bench_subcycle_arm(testbed, fleet_size, core::CandidateMode::kLinear,
                                         /*memoize=*/false, measured_days);
  point.optimized_1t_ms = bench_subcycle_arm(testbed, fleet_size, core::CandidateMode::kGrid,
                                             /*memoize=*/true, measured_days);
  point.speedup_1t = point.baseline_ms / std::max(1e-9, point.optimized_1t_ms);
  return point;
}

/// Discards everything, counting bytes — isolates encoding cost from I/O.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

struct TraceOverheadPoint {
  std::uint64_t events = 0;
  double jsonl_ns_per_event = 0.0;
  double binary_ns_per_event = 0.0;
  double jsonl_bytes_per_event = 0.0;
  double binary_bytes_per_event = 0.0;
  double time_ratio = 0.0;   ///< jsonl / binary (higher = binary cheaper)
  double bytes_ratio = 0.0;
};

/// A representative event stream: the non-structural kinds that dominate a
/// run, interned notes (some with integer arguments), a kSubcycle boundary
/// every 200 events, RNG-jittered payloads so double formatting sees
/// realistic digit counts.
std::vector<obs::TraceEvent> make_trace_workload(std::uint64_t count) {
  const obs::NoteId notes[] = {
      obs::intern_note("within_lmax"), obs::intern_note("over_lmax"),
      obs::intern_note("granted"),     obs::intern_note("fog"),
      obs::intern_note("wanted="),     obs::NoteId{}};
  const obs::EventKind kinds[] = {
      obs::EventKind::kProbeSent,   obs::EventKind::kProbeAnswered,
      obs::EventKind::kPlayerJoin,  obs::EventKind::kCapacityClaim,
      obs::EventKind::kMigration,   obs::EventKind::kRateSwitch};
  util::Rng rng(42);
  std::vector<obs::TraceEvent> events;
  events.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::TraceEvent e;
    e.t = static_cast<double>(i) * 0.000183 + rng.uniform(0.0, 1e-6);
    if (i % 200 == 199) {
      e.kind = obs::EventKind::kSubcycle;
      e.subject = static_cast<std::int64_t>(i / 9600);
      e.object = static_cast<std::int64_t>((i / 200) % 48);
      e.value = static_cast<double>(1000 + i % 64);
    } else {
      e.kind = kinds[i % std::size(kinds)];
      e.subject = rng.uniform_int(0, 99999);
      e.object = rng.uniform_int(0, 9999);
      e.value = rng.uniform(0.0, 250.0);
      const obs::NoteId note = notes[i % std::size(notes)];
      if (note.index == notes[4].index) {
        e.note = obs::Note{note, rng.uniform_int(0, 63)};
      } else {
        e.note = note;
      }
    }
    events.push_back(e);
  }
  return events;
}

TraceOverheadPoint bench_trace_overhead(std::uint64_t count, int repeats) {
  const auto events = make_trace_workload(count);
  TraceOverheadPoint point;
  point.events = count;
  for (const bool binary : {false, true}) {
    double best_ms = 0.0;
    std::uint64_t bytes = 0;
    for (int r = 0; r < repeats; ++r) {
      CountingBuf counter;
      std::ostream os(&counter);
      const auto t0 = std::chrono::steady_clock::now();
      if (binary) {
        obs::BinaryTraceSink sink(os);
        for (const auto& e : events) sink.write(e);
        sink.flush();
      } else {
        obs::JsonlTraceSink sink(os);
        for (const auto& e : events) sink.write(e);
        sink.flush();
      }
      const double ms = elapsed_ms(t0);
      if (r == 0 || ms < best_ms) best_ms = ms;
      bytes = counter.bytes;
    }
    const double per_event_ns = best_ms * 1e6 / static_cast<double>(count);
    const double per_event_bytes =
        static_cast<double>(bytes) / static_cast<double>(count);
    if (binary) {
      point.binary_ns_per_event = per_event_ns;
      point.binary_bytes_per_event = per_event_bytes;
    } else {
      point.jsonl_ns_per_event = per_event_ns;
      point.jsonl_bytes_per_event = per_event_bytes;
    }
  }
  point.time_ratio = point.jsonl_ns_per_event / std::max(1e-9, point.binary_ns_per_event);
  point.bytes_ratio =
      point.jsonl_bytes_per_event / std::max(1e-9, point.binary_bytes_per_event);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::string runstore_dir;
  obs::RunKey run_key{"local", "unknown", "unknown"};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--runstore") == 0 && i + 1 < argc) {
      runstore_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--run-id") == 0 && i + 1 < argc) {
      run_key.run_id = argv[++i];
    } else if (std::strcmp(argv[i], "--git-sha") == 0 && i + 1 < argc) {
      run_key.git_sha = argv[++i];
    } else if (std::strcmp(argv[i], "--config-hash") == 0 && i + 1 < argc) {
      run_key.config_hash = argv[++i];
    } else {
      std::cerr << "error: unknown argument: " << argv[i] << '\n';
      return 2;
    }
  }
  // Timing only: the recorder would charge every trace append to the
  // measured loops.
  obs::Recorder::global().set_enabled(false);

  const int repeats = quick ? 2 : 10;
  std::vector<DiscoveryPoint> discovery;
  for (const std::size_t fleet : {std::size_t{1000}, std::size_t{10000}}) {
    discovery.push_back(bench_discovery(fleet, /*saturated=*/false, repeats));
    std::cerr << "discovery fleet=" << discovery.back().fleet
              << " linear_us=" << discovery.back().linear_us
              << " grid_us=" << discovery.back().grid_us
              << " speedup=" << discovery.back().speedup << '\n';
  }
  const DiscoveryPoint saturated = bench_discovery(10000, /*saturated=*/true, repeats);
  std::cerr << "discovery_saturated fleet=" << saturated.fleet
            << " linear_us=" << saturated.linear_us << " grid_us=" << saturated.grid_us
            << " speedup=" << saturated.speedup << '\n';

  const int days = quick ? 1 : 2;
  std::vector<SubcyclePoint> subcycle;
  // fig7-style point (default 600-supernode fleet) and the 10k-supernode
  // scale-out point the index/memo layers target.
  subcycle.push_back(bench_subcycle(quick ? 2000 : 10000, 600, days));
  subcycle.push_back(bench_subcycle(quick ? 2000 : 10000, 10000, days));
  for (const auto& p : subcycle) {
    std::cerr << "subcycle players=" << p.players << " fleet=" << p.fleet
              << " baseline_ms=" << p.baseline_ms << " opt1t_ms=" << p.optimized_1t_ms
              << " speedup_1t=" << p.speedup_1t << '\n';
  }

  const TraceOverheadPoint trace_overhead =
      bench_trace_overhead(quick ? 50000 : 500000, quick ? 2 : 5);
  std::cerr << "trace_overhead events=" << trace_overhead.events
            << " jsonl_ns=" << trace_overhead.jsonl_ns_per_event
            << " binary_ns=" << trace_overhead.binary_ns_per_event
            << " jsonl_bytes=" << trace_overhead.jsonl_bytes_per_event
            << " binary_bytes=" << trace_overhead.binary_bytes_per_event
            << " time_ratio=" << trace_overhead.time_ratio
            << " bytes_ratio=" << trace_overhead.bytes_ratio << '\n';

  std::ostream* os = &std::cout;
  std::ofstream file;
  if (!json_path.empty()) {
    file.open(json_path);
    if (!file) {
      std::cerr << "error: cannot open " << json_path << '\n';
      return 1;
    }
    os = &file;
  }
  *os << "{\n  \"schema\": \"cloudfog.bench_scale/1\",\n";
  *os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
  *os << "  \"candidate_discovery\": [\n";
  for (std::size_t i = 0; i < discovery.size(); ++i) {
    const auto& p = discovery[i];
    *os << "    {\"fleet\": " << p.fleet << ", \"linear_us_per_query\": " << p.linear_us
        << ", \"grid_us_per_query\": " << p.grid_us << ", \"speedup\": " << p.speedup << "}"
        << (i + 1 < discovery.size() ? "," : "") << '\n';
  }
  *os << "  ],\n  \"candidate_discovery_saturated\": {\"fleet\": " << saturated.fleet
      << ", \"accepting_fraction\": 0.01, \"linear_us_per_query\": " << saturated.linear_us
      << ", \"grid_us_per_query\": " << saturated.grid_us
      << ", \"speedup\": " << saturated.speedup << "},\n";
  *os << "  \"subcycle\": [\n";
  for (std::size_t i = 0; i < subcycle.size(); ++i) {
    const auto& p = subcycle[i];
    *os << "    {\"players\": " << p.players << ", \"fleet\": " << p.fleet
        << ", \"baseline_ms\": " << p.baseline_ms
        << ", \"optimized_1t_ms\": " << p.optimized_1t_ms
        << ", \"speedup_1t\": " << p.speedup_1t << "}"
        << (i + 1 < subcycle.size() ? "," : "") << '\n';
  }
  *os << "  ],\n  \"trace_overhead\": {\n";
  *os << "    \"events\": " << trace_overhead.events << ",\n";
  *os << "    \"jsonl_ns_per_event\": " << trace_overhead.jsonl_ns_per_event << ",\n";
  *os << "    \"binary_ns_per_event\": " << trace_overhead.binary_ns_per_event << ",\n";
  *os << "    \"jsonl_bytes_per_event\": " << trace_overhead.jsonl_bytes_per_event << ",\n";
  *os << "    \"binary_bytes_per_event\": " << trace_overhead.binary_bytes_per_event << ",\n";
  *os << "    \"time_ratio\": " << trace_overhead.time_ratio << ",\n";
  *os << "    \"bytes_ratio\": " << trace_overhead.bytes_ratio << "\n";
  *os << "  }\n}\n";

  if (!runstore_dir.empty()) {
    obs::RunStore store(runstore_dir);
    const std::uint64_t row = store.begin_row(run_key);
    for (const auto& p : discovery) {
      const std::string prefix = "scale.discovery.fleet" + std::to_string(p.fleet);
      store.append(row, prefix + ".linear_us", p.linear_us);
      store.append(row, prefix + ".grid_us", p.grid_us);
      store.append(row, prefix + ".speedup", p.speedup);
    }
    const std::string sat_prefix =
        "scale.discovery_saturated.fleet" + std::to_string(saturated.fleet);
    store.append(row, sat_prefix + ".linear_us", saturated.linear_us);
    store.append(row, sat_prefix + ".grid_us", saturated.grid_us);
    for (const auto& p : subcycle) {
      const std::string prefix = "scale.subcycle.fleet" + std::to_string(p.fleet);
      store.append(row, prefix + ".baseline_ms", p.baseline_ms);
      store.append(row, prefix + ".optimized_1t_ms", p.optimized_1t_ms);
      store.append(row, prefix + ".speedup_1t", p.speedup_1t);
    }
    store.append(row, "scale.trace.jsonl_ns_per_event", trace_overhead.jsonl_ns_per_event);
    store.append(row, "scale.trace.binary_ns_per_event", trace_overhead.binary_ns_per_event);
    store.append(row, "scale.trace.time_ratio", trace_overhead.time_ratio);
    store.append(row, "scale.trace.bytes_ratio", trace_overhead.bytes_ratio);
    std::cerr << "runstore: appended row " << row << " to " << runstore_dir << '\n';
  }
  return 0;
}

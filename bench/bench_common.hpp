// Shared argument handling and observability session for the bench
// drivers (cloudfog_figs, bench_scenarios).
//
// parse_args accepts:
//   --paper              run at the paper's full scale (28 cycles, 21
//                        warm-up) — slower, but the exact §4.1 schedule;
//   --quick              minimal scale for smoke-testing (not with --paper);
//   --csv                emit CSV instead of aligned tables (for plotting);
//   --seed <n>           override the experiment seed;
//   --jobs <n>           run each sweep's cells on n worker threads
//                        (default: every CPU); outputs do not depend on it;
//   --trace <file>       stream the structured event trace in the binary
//                        format (tools/trace/tracecat turns it into JSONL);
//   --trace-sample <n>   sampled retention: keep every nth non-structural
//                        event (decided by a deterministic counter, so the
//                        sampled trace is identical across runs);
//   --trace-agg          aggregated retention: per-subcycle, per-kind
//                        {count, value-sum} summary events only;
//   --report-json <file> write the run report (metrics + counters +
//                        phase profile) on exit;
//   --obs-off            disable the observability recorder entirely.
// Flags taking a value accept both "--flag value" and "--flag=value", and
// numeric values must be whole decimal numbers ("42x" is an error). A bare
// argument is accepted only if the caller lists it as a name (cloudfog_figs'
// figure names). Anything else is an error (exit status 2), so a stale flag
// in a script fails loudly instead of silently changing what a run compares.
// Default is a reduced-but-faithful scale (6 cycles, 3 warm-up).
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"

namespace cloudfog::bench {

/// The observability options parse_args hands to the ObsSession.
struct ObsOptions {
  std::string trace_path;
  std::uint64_t trace_sample = 0;  ///< >0 selects sampled retention
  bool trace_agg = false;          ///< aggregated retention
  std::string report_path;
};

/// Owns the trace sink and writes the run report when the process exits.
/// Instantiated only after Recorder::global() (a Meyer's singleton), so its
/// destructor runs before the recorder is torn down.
class ObsSession {
 public:
  static ObsSession& instance() {
    static ObsSession session;
    return session;
  }

  void configure(ObsOptions opts) {
    opts_ = std::move(opts);
    auto& buf = obs::Recorder::global().trace_buffer();
    if (opts_.trace_sample > 0) {
      buf.set_retention(obs::TraceRetention::kSampled, opts_.trace_sample);
    } else if (opts_.trace_agg) {
      buf.set_retention(obs::TraceRetention::kAggregated);
    }
    if (!opts_.trace_path.empty()) {
      trace_out_.open(opts_.trace_path, std::ios::binary | std::ios::out);
      if (trace_out_) {
        sink_ = std::make_unique<obs::BinaryTraceSink>(trace_out_);
        buf.set_event_sink(sink_.get());
      } else {
        std::cerr << "warning: cannot open trace file " << opts_.trace_path << '\n';
        opts_.trace_path.clear();
      }
    }
  }

  ~ObsSession() { finalize(); }

  void finalize() {
    if (finalized_) return;
    finalized_ = true;
    auto& rec = obs::Recorder::global();
    auto& buf = rec.trace_buffer();
    if (!opts_.trace_path.empty()) {
      buf.close_aggregation_window();
      buf.flush();
      buf.set_event_sink(nullptr);
      sink_.reset();
      trace_out_.close();
    }
    if (!opts_.report_path.empty()) {
      std::ofstream os(opts_.report_path);
      if (os) {
        obs::write_report_json(os, rec);
      } else {
        std::cerr << "warning: cannot open report file " << opts_.report_path << '\n';
      }
    }
  }

 private:
  ObsSession() = default;

  ObsOptions opts_;
  std::ofstream trace_out_;
  std::unique_ptr<obs::BinaryTraceSink> sink_;
  bool finalized_ = false;
};

/// Matches "--flag value" and "--flag=value"; on a match, `*value` points
/// at the value and `*i` is advanced past any consumed extra argv slot.
inline bool flag_value(int argc, char** argv, int* i, const char* flag,
                       const char** value) {
  const char* arg = argv[*i];
  const std::size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) != 0) return false;
  if (arg[flag_len] == '=') {
    *value = arg + flag_len + 1;
    return true;
  }
  if (arg[flag_len] == '\0' && *i + 1 < argc) {
    *value = argv[++*i];
    return true;
  }
  return false;
}

/// A whole decimal number in [lo, hi], or exit 2: no sign, no leading
/// space, no trailing characters, no overflow.
inline std::uint64_t count_arg(const char* flag, const char* value, std::uint64_t lo,
                               std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(value[0])) == 0 || *end != '\0' ||
      errno == ERANGE || n < lo || n > hi) {
    std::cerr << "error: " << flag << " needs a whole number in [" << lo << ", " << hi
              << "], got '" << value << "'\n";
    std::exit(2);
  }
  return n;
}

/// What parse_args found besides the observability options.
struct BenchArgs {
  bool quick = false;  ///< --quick
  bool paper = false;  ///< --paper
  bool csv = false;    ///< --csv
  std::uint64_t seed = core::ExperimentScale{}.seed;
  int jobs = core::ExperimentScale{}.jobs;
  std::vector<std::string> names;  ///< bare arguments, in command-line order

  /// `fallback`, or quick()/paper() when --quick/--paper was given, with
  /// --seed and --jobs applied.
  core::ExperimentScale scale(core::ExperimentScale fallback) const {
    core::ExperimentScale s = quick   ? core::ExperimentScale::quick()
                              : paper ? core::ExperimentScale::paper()
                                      : fallback;
    s.seed = seed;
    s.jobs = jobs;
    return s;
  }
};

/// Parses the flags listed at the top of this file and starts the
/// observability session. A bare argument must be one of `names`.
inline BenchArgs parse_args(int argc, char** argv,
                            const std::vector<std::string>& names = {}) {
  BenchArgs args;
  bool obs_off = false;
  ObsOptions opts;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--paper") == 0) {
      args.paper = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = true;
    } else if (flag_value(argc, argv, &i, "--seed", &value)) {
      args.seed = count_arg("--seed", value, 0, kMax);
    } else if (flag_value(argc, argv, &i, "--jobs", &value)) {
      args.jobs = static_cast<int>(count_arg("--jobs", value, 1, 1024));
    } else if (flag_value(argc, argv, &i, "--trace-sample", &value)) {
      opts.trace_sample = count_arg("--trace-sample", value, 1, kMax);
    } else if (std::strcmp(argv[i], "--trace-agg") == 0) {
      opts.trace_agg = true;
    } else if (flag_value(argc, argv, &i, "--trace", &value)) {
      opts.trace_path = value;
    } else if (flag_value(argc, argv, &i, "--report-json", &value)) {
      opts.report_path = value;
    } else if (std::strcmp(argv[i], "--obs-off") == 0) {
      obs_off = true;
    } else if (std::find(names.begin(), names.end(), argv[i]) != names.end()) {
      args.names.emplace_back(argv[i]);
    } else {
      std::cerr << "error: unknown argument: " << argv[i] << '\n';
      if (!names.empty() && argv[i][0] != '-') {
        std::cerr << "names:";
        for (const std::string& name : names) std::cerr << ' ' << name;
        std::cerr << '\n';
      }
      std::exit(2);
    }
  }
  if (args.quick && args.paper) {
    std::cerr << "error: --quick and --paper are mutually exclusive\n";
    std::exit(2);
  }
  if (opts.trace_sample > 0 && opts.trace_agg) {
    std::cerr << "error: --trace-sample and --trace-agg are mutually exclusive\n";
    std::exit(2);
  }
  // Touch the recorder singleton before the session singleton so the
  // session's destructor (flush + report) runs first at exit.
  obs::Recorder::global().set_enabled(!obs_off);
  ObsSession::instance().configure(obs_off ? ObsOptions{} : opts);
  return args;
}

inline void print(const util::Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
    std::cout << '\n';
  } else {
    table.print(std::cout);
  }
}

}  // namespace cloudfog::bench

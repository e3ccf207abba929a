// An observability context: one Registry, one TraceBuffer, one
// PhaseProfiler, plus the run-summary list that the report exporter
// serializes.
//
// Every System reports into the recorder it was constructed with, and
// passes it on to its components. The static global() is only the root the
// harnesses (bench binaries, perfbench, tests) hand to the public entry
// points by default; a sweep gives each cell a child recorder and folds
// it into the caller's with merge_from(), in cell order. Those cell
// recorders are count-only (trace capacity 0): nothing reads their events,
// so trace() counts each one inline and returns. A recorder is
// single-threaded, like the System that reports into it.
//
// Everything is gated on a single `enabled()` flag, default OFF, so
// instrumented hot paths cost one predictable branch unless a harness
// opts in (bench_common enables it unless --obs-off).
//
// Timestamps: components report sim time through set_sim_time() (the
// domain clock of the current run); trace events are stamped with
// base + sim_time, clamped to be monotonically non-decreasing across the
// recorder's life — begin_run() re-bases the clock so that consecutive runs
// (each restarting its own sim clock at zero) still produce a monotone
// trace file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/phase_profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace cloudfog::obs {

/// One named statistic of a finished run (mirrors util::RunningStats /
/// util::SampleSet without depending on them).
struct StatSummary {
  std::string name;
  std::uint64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  bool has_percentiles = false;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Metrics of one completed System run, as reported by the run owner.
struct RunSummary {
  std::string label;
  std::uint64_t measured_subcycles = 0;
  std::vector<StatSummary> stats;
};

class Recorder {
 public:
  /// `trace_capacity` sizes the trace ring; 0 makes a count-only trace
  /// buffer (events are counted but never stored).
  explicit Recorder(std::size_t trace_capacity = std::size_t{1} << 16)
      : trace_(trace_capacity) {}

  /// The harnesses' root recorder.
  static Recorder& global();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  PhaseProfiler& profiler() { return profiler_; }
  const PhaseProfiler& profiler() const { return profiler_; }
  TraceBuffer& trace_buffer() { return trace_; }
  const TraceBuffer& trace_buffer() const { return trace_; }

  /// Domain clock of the current run, in seconds.
  void set_sim_time(double t) { sim_time_ = t; }
  double sim_time() const { return sim_time_; }

  /// Monotone trace clock: base + sim time, never going backwards.
  double now() const;

  /// Stamps and buffers a trace event (no-op while disabled). Notes are
  /// interned NoteIds (see obs/note_table.hpp) — hot call sites intern
  /// their fixed vocabulary once, so pushing never allocates. A count-only
  /// buffer (capacity 0) keeps nothing, so the event is only counted as
  /// pushed and dropped: no clock read, no event built.
  void trace(EventKind kind, std::int64_t subject = -1, std::int64_t object = -1,
             double value = 0.0, Note note = {}) {
    if (!enabled_) return;
    if (trace_.capacity() == 0) {
      trace_.add_pushed(1, 1);
      return;
    }
    push_now(kind, subject, object, value, note);
  }

  /// Like trace(), but with an explicit domain timestamp in seconds
  /// (for components that run their own sim clock, e.g. the fault
  /// injector).
  void trace_at(double t_seconds, EventKind kind, std::int64_t subject = -1,
                std::int64_t object = -1, double value = 0.0, Note note = {}) {
    if (!enabled_) return;
    if (trace_.capacity() == 0) {
      trace_.add_pushed(1, 1);
      return;
    }
    push_at(t_seconds, kind, subject, object, value, note);
  }

  /// Marks the start of a run: re-bases the trace clock past everything
  /// emitted so far and (when enabled) emits a kRunStart event.
  void begin_run(std::string label);

  void add_run_summary(RunSummary summary);
  const std::vector<RunSummary>& runs() const { return runs_; }

  /// Resets values, trace and runs (names/handles survive). Test helper.
  void reset();

  /// Folds a finished child in: run summaries appended, counters,
  /// histogram counts and phase stats summed, gauges the child set
  /// overwritten, and the child's pushed and dropped event counts added
  /// (its events themselves are not copied).
  void merge_from(const Recorder& child);

 private:
  /// The stored paths of trace()/trace_at(): stamp and push to the ring.
  void push_now(EventKind kind, std::int64_t subject, std::int64_t object, double value,
                Note note);
  void push_at(double t_seconds, EventKind kind, std::int64_t subject, std::int64_t object,
               double value, Note note);

  bool enabled_ = false;
  Registry registry_;
  PhaseProfiler profiler_;
  TraceBuffer trace_;
  std::vector<RunSummary> runs_;
  double sim_time_ = 0.0;
  double base_time_ = 0.0;
  mutable double last_emitted_ = 0.0;
};

/// RAII wall-clock timer for a profiled phase. Reads the clock only while
/// the recorder is enabled; a disabled recorder costs one branch.
class ScopedTimer {
 public:
  ScopedTimer(Recorder& rec, PhaseId id) : rec_(rec) {
    if (rec_.enabled()) {
      id_ = id;
      armed_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      rec_.profiler().record(id_, static_cast<std::uint64_t>(ns));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Recorder& rec_;
  PhaseId id_{};
  bool armed_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace cloudfog::obs

// Profiles the enclosing scope under `name` in recorder `rec`. The phase
// id is interned once, process-wide (function-local static); the timer
// itself only reads the clock while `rec` is enabled.
#define CLOUDFOG_OBS_CONCAT2(a, b) a##b
#define CLOUDFOG_OBS_CONCAT(a, b) CLOUDFOG_OBS_CONCAT2(a, b)
#define CLOUDFOG_TIMED_SCOPE(rec, name)                                              \
  static const ::cloudfog::obs::PhaseId CLOUDFOG_OBS_CONCAT(cf_obs_phase_,           \
                                                            __LINE__) =              \
      ::cloudfog::obs::PhaseProfiler::intern(name);                                  \
  const ::cloudfog::obs::ScopedTimer CLOUDFOG_OBS_CONCAT(cf_obs_timer_, __LINE__)(   \
      (rec), CLOUDFOG_OBS_CONCAT(cf_obs_phase_, __LINE__))

#include "obs/recorder.hpp"

#include <algorithm>

namespace cloudfog::obs {

Recorder& Recorder::global() {
  // The harnesses' root: library code never reaches for it, it is only
  // the default recorder of the public entry points.
  // NOLINTNEXTLINE(cloudfog-static-mutable): the harnesses' observability root
  static Recorder instance;
  return instance;
}

double Recorder::now() const {
  const double t = std::max(base_time_ + sim_time_, last_emitted_);
  last_emitted_ = t;
  return t;
}

void Recorder::push_now(EventKind kind, std::int64_t subject, std::int64_t object,
                        double value, Note note) {
  trace_.push(TraceEvent{now(), kind, subject, object, value, note});
}

void Recorder::push_at(double t_seconds, EventKind kind, std::int64_t subject,
                       std::int64_t object, double value, Note note) {
  const double t = std::max(base_time_ + t_seconds, last_emitted_);
  last_emitted_ = t;
  trace_.push(TraceEvent{t, kind, subject, object, value, note});
}

void Recorder::begin_run(std::string label) {
  // Re-base so the new run's sim clock (restarting at 0) continues the
  // monotone trace timeline where the previous run left off.
  base_time_ = last_emitted_;
  sim_time_ = 0.0;
  if (!enabled_) return;
  trace_.push(TraceEvent{now(), EventKind::kRunStart, -1, -1,
                         static_cast<double>(runs_.size()), Note{intern_note(label)}});
}

void Recorder::add_run_summary(RunSummary summary) {
  if (!enabled_) return;
  runs_.push_back(std::move(summary));
}

void Recorder::reset() {
  registry_.reset_values();
  profiler_.reset_values();
  trace_.clear();
  runs_.clear();
  sim_time_ = 0.0;
  base_time_ = 0.0;
  last_emitted_ = 0.0;
}

void Recorder::merge_from(const Recorder& child) {
  runs_.insert(runs_.end(), child.runs_.begin(), child.runs_.end());
  registry_.merge_from(child.registry_);
  profiler_.merge_from(child.profiler_);
  trace_.add_pushed(child.trace_.total_pushed(), child.trace_.dropped());
}

}  // namespace cloudfog::obs

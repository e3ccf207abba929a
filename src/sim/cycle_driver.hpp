// Cycle/subcycle overlay on top of the event simulator.
//
// The paper's experiments run for 28 cycles, "each cycle representing one
// day's gaming activities; each cycle is further divided into 24 one-hour
// subcycles" (§4.1). CycleDriver owns that structure: it walks the clock
// through every subcycle, invoking observer hooks, and reports whether a
// subcycle falls in the warm-up window or in peak hours (subcycles 20–24,
// i.e. 8 pm–12 am).
#pragma once

#include <functional>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace cloudfog::sim {

struct CycleConfig {
  int total_cycles = 28;      ///< days simulated
  int warmup_cycles = 21;     ///< cycles excluded from reported averages
  int subcycles_per_cycle = 24;
  double subcycle_seconds = 3600.0;
  int peak_start_subcycle = 20;  ///< first peak subcycle (1-based, inclusive)
  int peak_end_subcycle = 24;    ///< last peak subcycle (1-based, inclusive)
};

/// Position of a subcycle within the whole run.
struct CyclePoint {
  int cycle = 1;     ///< 1-based day index
  int subcycle = 1;  ///< 1-based hour index within the day
  bool warmup = true;
  bool peak = false;
  SimTime start_time = 0.0;  ///< simulation time at subcycle start

  /// 0-based index of this subcycle since the run began.
  int global_subcycle(const CycleConfig& cfg) const {
    return (cycle - 1) * cfg.subcycles_per_cycle + (subcycle - 1);
  }
};

class CycleDriver {
 public:
  using SubcycleHook = std::function<void(const CyclePoint&)>;
  using CycleHook = std::function<void(int cycle, bool warmup)>;

  /// Stamps subcycle boundaries and drain time into `rec`.
  CycleDriver(Simulator& sim, CycleConfig cfg, obs::Recorder& rec = obs::Recorder::global());

  /// Called at the start of every subcycle, before events in it run.
  void on_subcycle(SubcycleHook hook);

  /// Called once at the end of every cycle (after its last subcycle).
  void on_cycle_end(CycleHook hook);

  /// Runs all cycles to completion, draining events inside each subcycle.
  void run();

  const CycleConfig& config() const { return cfg_; }

  /// Classifies a subcycle index (1-based) as peak or off-peak.
  bool is_peak_subcycle(int subcycle) const;

 private:
  Simulator& sim_;
  CycleConfig cfg_;
  obs::Recorder& rec_;
  std::vector<SubcycleHook> subcycle_hooks_;
  std::vector<CycleHook> cycle_hooks_;
};

}  // namespace cloudfog::sim

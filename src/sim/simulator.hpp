// Discrete-event simulator core: the event clock that the fault injector
// (and the join oracle in src/oracle) schedule on. The day/hour schedule
// of the paper's evaluation (§4.1) is System::run's loop; the simulator
// only supplies event-driven timing inside it.
#pragma once

#include "sim/event_queue.hpp"

namespace cloudfog::sim {

class Simulator {
 public:
  Simulator() = default;

  /// Current simulation time (seconds).
  SimTime now() const { return now_; }

  /// Schedules `cb` to run `delay` seconds from now. Requires delay >= 0.
  void schedule_in(SimTime delay, EventQueue::Callback cb);

  /// Schedules `cb` at an absolute time >= now().
  void schedule_at(SimTime at, EventQueue::Callback cb);

  /// Runs until the queue drains or `until` is reached (events at exactly
  /// `until` are executed), then sets the clock to `until` if it is later.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime until);

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
};

}  // namespace cloudfog::sim

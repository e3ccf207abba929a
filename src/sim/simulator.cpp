#include "sim/simulator.hpp"

#include "util/require.hpp"

namespace cloudfog::sim {

void Simulator::schedule_in(SimTime delay, EventQueue::Callback cb) {
  CLOUDFOG_REQUIRE(delay >= 0.0, "negative delay");
  queue_.schedule(now_ + delay, std::move(cb));
}

void Simulator::schedule_at(SimTime at, EventQueue::Callback cb) {
  CLOUDFOG_REQUIRE(at >= now_, "cannot schedule in the past");
  queue_.schedule(at, std::move(cb));
}

std::size_t Simulator::run_until(SimTime until) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.next_time() <= until) {
    auto ev = queue_.pop();
    now_ = ev.time;
    ev.callback();
    ++executed;
  }
  // Advance the clock even if nothing fired in the window, so later
  // schedule_in calls are relative to the end of the window.
  if (until > now_) now_ = until;
  return executed;
}

}  // namespace cloudfog::sim

// Priority queue of timestamped events with stable FIFO ordering among
// simultaneous events — equal-time events fire in the order they were
// scheduled, which keeps runs deterministic regardless of heap internals.
// An event, once scheduled, always fires: each heap entry holds its own
// callback.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace cloudfog::sim {

/// Simulation time, in seconds since the start of the run.
using SimTime = double;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` to fire at absolute time `at`. Requires at >= 0.
  void schedule(SimTime at, Callback cb);

  bool empty() const { return heap_.empty(); }

  /// Time of the earliest pending event; requires !empty().
  SimTime next_time() const;

  struct PoppedEvent {
    SimTime time;
    Callback callback;
  };

  /// Removes and returns the earliest pending event; requires !empty().
  PoppedEvent pop();

 private:
  struct Entry {
    SimTime time{};
    std::uint64_t seq = 0;  // tie-break: schedule order
    Callback callback;
  };
  /// Heap order: the earliest (time, seq) sits at the front.
  static bool later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace cloudfog::sim

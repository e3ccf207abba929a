#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cloudfog::sim {

void EventQueue::schedule(SimTime at, Callback cb) {
  CLOUDFOG_REQUIRE(at >= 0.0, "cannot schedule before time zero");
  CLOUDFOG_REQUIRE(static_cast<bool>(cb), "null event callback");
  heap_.push_back(Entry{at, next_seq_++, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

SimTime EventQueue::next_time() const {
  CLOUDFOG_REQUIRE(!heap_.empty(), "next_time on empty queue");
  return heap_.front().time;
}

EventQueue::PoppedEvent EventQueue::pop() {
  CLOUDFOG_REQUIRE(!heap_.empty(), "pop on empty queue");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  PoppedEvent out{heap_.back().time, std::move(heap_.back().callback)};
  heap_.pop_back();
  return out;
}

}  // namespace cloudfog::sim

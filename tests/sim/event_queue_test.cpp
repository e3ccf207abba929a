#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace cloudfog::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(3.0, [&] { fired.push_back(3); });
  q.schedule(1.0, [&] { fired.push_back(1); });
  q.schedule(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFireFifo) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PopReportsTime) {
  EventQueue q;
  q.schedule(4.5, [] {});
  const auto ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.time, 4.5);
}

TEST(EventQueue, RejectsNegativeTimeAndNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), cloudfog::ConfigError);
  EXPECT_THROW(q.schedule(1.0, EventQueue::Callback{}), cloudfog::ConfigError);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), cloudfog::ConfigError);
  EXPECT_THROW(q.next_time(), cloudfog::ConfigError);
}

TEST(EventQueue, NextTimeIsTheEarliestPending) {
  EventQueue q;
  q.schedule(7.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.schedule(9.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop();
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
}

TEST(EventQueue, TimeZeroIsSchedulable) {
  EventQueue q;
  q.schedule(0.0, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 0.0);
  EXPECT_TRUE(q.empty());
}

// Without cancellation every scheduled event fires exactly once.
TEST(EventQueue, EveryScheduledEventFiresExactlyOnce) {
  EventQueue q;
  std::vector<int> fired(50, 0);
  for (int i = 0; i < 50; ++i) {
    q.schedule(static_cast<double>(i % 7), [&fired, i] { ++fired[static_cast<std::size_t>(i)]; });
  }
  std::size_t pops = 0;
  while (!q.empty()) {
    q.pop().callback();
    ++pops;
  }
  EXPECT_EQ(pops, 50u);
  EXPECT_TRUE(std::all_of(fired.begin(), fired.end(), [](int n) { return n == 1; }));
}

// The heap order equals a stable sort by time: (time, schedule order).
TEST(EventQueue, PopOrderMatchesStableSortByTime) {
  util::Rng rng(17);
  EventQueue q;
  std::vector<std::pair<double, int>> scheduled;
  std::vector<int> fired;
  for (int i = 0; i < 500; ++i) {
    // Few distinct times, so most events tie with others.
    const double at = static_cast<double>(rng.uniform_int(0, 19)) * 0.5;
    scheduled.emplace_back(at, i);
    q.schedule(at, [&fired, i] { fired.push_back(i); });
  }
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  double last = 0.0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.time, last);
    last = ev.time;
    ev.callback();
  }
  ASSERT_EQ(fired.size(), scheduled.size());
  for (std::size_t k = 0; k < fired.size(); ++k) EXPECT_EQ(fired[k], scheduled[k].second);
}

// An event scheduled while draining, at the time being drained, fires after
// every event already queued for that time.
TEST(EventQueue, EventScheduledDuringDrainQueuesBehindItsTies) {
  EventQueue q;
  std::vector<int> fired;
  q.schedule(1.0, [&] {
    fired.push_back(1);
    q.schedule(1.0, [&] { fired.push_back(4); });
    q.schedule(1.0, [&] { fired.push_back(5); });
  });
  q.schedule(1.0, [&] { fired.push_back(2); });
  q.schedule(1.0, [&] { fired.push_back(3); });
  q.schedule(2.0, [&] { fired.push_back(6); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

// The queue keeps no reference to a popped event's callback: what the
// callback captured is released when the caller drops it.
TEST(EventQueue, PopHandsOverTheCallback) {
  EventQueue q;
  auto token = std::make_shared<int>(0);
  q.schedule(1.0, [token] { ++*token; });
  q.schedule(2.0, [] {});
  EXPECT_EQ(token.use_count(), 2);
  {
    auto ev = q.pop();
    ev.callback();
    EXPECT_EQ(*token, 1);
  }
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueue, EmptyAgainAfterDrainAndReusable) {
  EventQueue q;
  q.schedule(3.0, [] {});
  q.pop();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), cloudfog::ConfigError);
  int fired = 0;
  q.schedule(1.0, [&] { ++fired; });  // earlier than anything seen before
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.pop().callback();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace cloudfog::sim

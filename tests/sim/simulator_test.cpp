#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/require.hpp"

namespace cloudfog::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> seen;
  sim.schedule_in(2.0, [&] { seen.push_back(sim.now()); });
  sim.schedule_in(5.0, [&] { seen.push_back(sim.now()); });
  sim.run_until(5.0);
  EXPECT_EQ(seen, (std::vector<double>{2.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(3.0, [&] { ++fired; });
  const std::size_t executed = sim.run_until(2.0);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);  // clock advances to the window end
  sim.run_until(3.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilIncludesEventsExactlyAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(2.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.5, [&] { times.push_back(sim.now()); });
  });
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.5}));
}

TEST(Simulator, ScheduleAtRejectsPast) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(1.0, [] {}), cloudfog::ConfigError);
}

TEST(Simulator, ScheduleInRejectsNegativeDelay) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(-0.5, [] {}), cloudfog::ConfigError);
}

TEST(Simulator, ScheduleAtNowFiresInTheNextRun) {
  Simulator sim;
  sim.run_until(4.0);
  int fired = 0;
  sim.schedule_at(4.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(4.0), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, EmptyRunAdvancesTheClock) {
  Simulator sim;
  EXPECT_EQ(sim.run_until(3.5), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
}

TEST(Simulator, RunUntilAnEarlierTimeNeverRewindsTheClock) {
  Simulator sim;
  sim.run_until(10.0);
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(5.0), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_EQ(sim.run_until(11.0), 1u);
  EXPECT_EQ(fired, 1);
}

// The fault injector schedules a whole plan up front, then runs one
// subcycle window at a time: schedule_in after a window is relative to the
// window's end, not to the last event that fired.
TEST(Simulator, ScheduleInAfterAWindowIsRelativeToItsEnd) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.run_until(3600.0);
  double fired_at = -1.0;
  sim.schedule_in(60.0, [&] { fired_at = sim.now(); });
  sim.run_until(7200.0);
  EXPECT_DOUBLE_EQ(fired_at, 3660.0);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(1); });
  sim.schedule_in(2.0, [&] { order.push_back(2); });
  sim.schedule_at(2.0, [&] { order.push_back(3); });
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A zero-delay event scheduled by a callback fires inside the same run.
TEST(Simulator, ZeroDelayFollowUpRunsInTheSameWindow) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(5.0, [&] {
    sim.schedule_in(0.0, [&] { times.push_back(sim.now()); });
  });
  EXPECT_EQ(sim.run_until(5.0), 2u);
  EXPECT_EQ(times, (std::vector<double>{5.0}));
}

}  // namespace
}  // namespace cloudfog::sim

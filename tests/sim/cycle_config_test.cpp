#include "sim/cycle_config.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cloudfog::sim {
namespace {

// The paper's schedule (§4.1) is spelled here in literals, not read back
// from the constants, so a change to the day's shape fails these tests.

TEST(CycleConfig, DayIsTwentyFourOneHourSubcycles) {
  EXPECT_EQ(CycleConfig::subcycles_per_cycle, 24);
  EXPECT_EQ(CycleConfig::subcycle_seconds, 3600.0);
}

TEST(CycleConfig, DefaultRunIsTwentyEightDaysAfterTwentyOneWarmup) {
  const CycleConfig cfg;
  EXPECT_EQ(cfg.total_cycles, 28);
  EXPECT_EQ(cfg.warmup_cycles, 21);
}

TEST(CycleConfig, MinutesPerSubcycleIsExactlySixty) {
  EXPECT_EQ(kMinutesPerSubcycle, 60.0);
}

TEST(PeakSubcycle, EveningWindowIsTwentyToTwentyFour) {
  for (int sub = 1; sub <= 24; ++sub) {
    EXPECT_EQ(is_peak_subcycle(sub), sub >= 20) << "subcycle " << sub;
  }
}

TEST(PeakSubcycle, NothingOutsideTheDayIsPeak) {
  EXPECT_FALSE(is_peak_subcycle(0));
  EXPECT_FALSE(is_peak_subcycle(-1));
  EXPECT_FALSE(is_peak_subcycle(25));
}

TEST(SubcycleStart, RunOpensAtZero) { EXPECT_EQ(subcycle_start_s(1, 1), 0.0); }

TEST(SubcycleStart, SubcyclesAreOneHourApart) {
  for (int day = 1; day <= 3; ++day) {
    for (int sub = 1; sub <= 24; ++sub) {
      EXPECT_EQ(subcycle_start_s(day, sub + 1) - subcycle_start_s(day, sub), 3600.0)
          << "day " << day << " subcycle " << sub;
    }
  }
}

// The end of a day's last subcycle, start(day, 25), is where a fault
// window closing at midnight ends; it must be the next day's first start.
TEST(SubcycleStart, DayOpensWhereThePreviousDayEnds) {
  for (int day = 1; day <= 28; ++day) {
    EXPECT_EQ(subcycle_start_s(day + 1, 1), subcycle_start_s(day, 25)) << "day " << day;
    EXPECT_EQ(subcycle_start_s(day + 1, 1), day * 86400.0) << "day " << day;
  }
}

// Every clock value of a paper run is an exact whole number of seconds,
// so the trace and fault clocks cannot drift from the hand-written walk.
TEST(SubcycleStart, ExactWholeSecondsOverAPaperRun) {
  for (int day = 1; day <= 28; ++day) {
    for (int sub = 1; sub <= 24; ++sub) {
      const double t = subcycle_start_s(day, sub);
      EXPECT_EQ(t, std::floor(t));
      EXPECT_EQ(t, ((day - 1) * 24 + (sub - 1)) * 3600.0);
    }
  }
  EXPECT_EQ(subcycle_start_s(28, 24) + 3600.0, 28 * 86400.0);
}

}  // namespace
}  // namespace cloudfog::sim

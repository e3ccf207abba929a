#include "game/activity_model.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::game {
namespace {

TEST(ActivityModel, DurationClassFractionsMatchPaper) {
  const ActivityModel model;
  util::Rng rng(1);
  int casual = 0;
  int regular = 0;
  int hardcore = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    switch (model.sample_duration_class(rng)) {
      case DurationClass::kCasual: ++casual; break;
      case DurationClass::kRegular: ++regular; break;
      case DurationClass::kHardcore: ++hardcore; break;
    }
  }
  EXPECT_NEAR(casual / static_cast<double>(n), 0.50, 0.01);
  EXPECT_NEAR(regular / static_cast<double>(n), 0.30, 0.01);
  EXPECT_NEAR(hardcore / static_cast<double>(n), 0.20, 0.01);
}

TEST(ActivityModel, PlayHoursWithinClassRanges) {
  const ActivityModel model;
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const double casual = model.sample_play_hours(DurationClass::kCasual, rng);
    EXPECT_GT(casual, 0.0);
    EXPECT_LE(casual, 2.0);
    const double regular = model.sample_play_hours(DurationClass::kRegular, rng);
    EXPECT_GE(regular, 2.0);
    EXPECT_LE(regular, 5.0);
    const double hardcore = model.sample_play_hours(DurationClass::kHardcore, rng);
    EXPECT_GE(hardcore, 5.0);
    EXPECT_LE(hardcore, 24.0);
  }
}

TEST(ActivityModel, StartSubcyclesFavorTheEveningPeak) {
  const ActivityModel model;
  util::Rng rng(3);
  int peak_starts = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const int start = model.sample_start_subcycle(rng);
    ASSERT_GE(start, 1);
    ASSERT_LE(start, 24);
    if (start >= 20) ++peak_starts;
  }
  // §4.1: 70 % of sessions begin in subcycles 20–24.
  EXPECT_NEAR(peak_starts / static_cast<double>(n), 0.70, 0.01);
}

TEST(ActivityModel, ChooseGameFollowsFriendMajority) {
  const GameCatalog catalog = GameCatalog::paper_default();
  const ActivityModel model;
  util::Rng rng(4);
  EXPECT_EQ(model.choose_game(catalog, {2, 2, 4}, rng), 2);
  EXPECT_EQ(model.choose_game(catalog, {0}, rng), 0);
}

TEST(ActivityModel, ChooseGameRandomWithoutFriends) {
  const GameCatalog catalog = GameCatalog::paper_default();
  const ActivityModel model;
  util::Rng rng(5);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i) {
    ++seen[static_cast<std::size_t>(model.choose_game(catalog, {}, rng))];
  }
  for (int count : seen) EXPECT_GT(count, 250);
}

TEST(DailySession, OnlineWindowMatchesStartAndHours) {
  DailySession s;
  s.start_subcycle = 10;
  s.hours = 2.5;  // covers subcycles 10, 11, 12
  EXPECT_FALSE(s.online_at(9));
  EXPECT_TRUE(s.online_at(10));
  EXPECT_TRUE(s.online_at(12));
  EXPECT_FALSE(s.online_at(13));
}

TEST(DailySession, TruncatesAtMidnight) {
  DailySession s;
  s.start_subcycle = 23;
  s.hours = 10.0;
  EXPECT_TRUE(s.online_at(24));
  EXPECT_FALSE(s.online_at(25));
}

TEST(DailySession, RollProducesValidSessions) {
  const ActivityModel model;
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const DailySession s = roll_daily_session(model, DurationClass::kRegular, rng);
    EXPECT_GE(s.start_subcycle, 1);
    EXPECT_LE(s.start_subcycle, 24);
    EXPECT_GT(s.hours, 0.0);
  }
}

TEST(ActivityModel, RejectsBadConfig) {
  ActivityModelConfig cfg;
  cfg.casual_fraction = 0.8;
  cfg.regular_fraction = 0.5;  // sums over 1
  EXPECT_THROW(ActivityModel{cfg}, cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::game

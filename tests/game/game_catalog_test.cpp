#include "game/game_catalog.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::game {
namespace {

TEST(GameCatalog, PaperDefaultHasFiveGames) {
  const GameCatalog catalog = GameCatalog::paper_default();
  EXPECT_EQ(catalog.size(), 5u);
}

TEST(GameCatalog, GamesSpanTheLatencyLadder) {
  const GameCatalog catalog = GameCatalog::paper_default();
  EXPECT_DOUBLE_EQ(catalog.game(0).latency_requirement_ms, 30.0);
  EXPECT_DOUBLE_EQ(catalog.game(4).latency_requirement_ms, 110.0);
  for (const auto& g : catalog.games()) {
    const auto& level = catalog.ladder().at_level(g.default_quality_level);
    EXPECT_LE(level.latency_requirement_ms, g.latency_requirement_ms);
  }
}

TEST(GameCatalog, DefaultLevelIsTheHighestWithinBudget) {
  // §3.3: "if a game video has a latency requirement of 90 ms, the
  // supernode should use 1200 kbps encoding bitrate (level 4)".
  const GameCatalog catalog = GameCatalog::paper_default();
  const QualityLadder& ladder = catalog.ladder();
  EXPECT_EQ(catalog.game(3).default_quality_level, 4);
  EXPECT_DOUBLE_EQ(ladder.at_level(4).bitrate_kbps, 1200.0);
  for (const auto& g : catalog.games()) {
    if (g.default_quality_level == ladder.max_level()) continue;
    EXPECT_GT(ladder.step_up(g.default_quality_level).latency_requirement_ms,
              g.latency_requirement_ms)
        << g.name;
  }
}

TEST(GameCatalog, TolerancesMatchTable2) {
  const GameCatalog catalog = GameCatalog::paper_default();
  EXPECT_DOUBLE_EQ(catalog.game(0).latency_tolerance, 0.6);
  EXPECT_DOUBLE_EQ(catalog.game(4).latency_tolerance, 1.0);
}

TEST(GameCatalog, RandomGameCoversAllGames) {
  const GameCatalog catalog = GameCatalog::paper_default();
  util::Rng rng(1);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) {
    ++seen[static_cast<std::size_t>(catalog.random_game(rng).id)];
  }
  for (int count : seen) EXPECT_GT(count, 700);
}

TEST(GameCatalog, OutOfRangeIdThrows) {
  const GameCatalog catalog = GameCatalog::paper_default();
  EXPECT_THROW(catalog.game(-1), cloudfog::ConfigError);
  EXPECT_THROW(catalog.game(5), cloudfog::ConfigError);
}

TEST(GameCatalog, RejectsNonDenseIds) {
  QualityLadder ladder = QualityLadder::paper_default();
  std::vector<GameInfo> games;
  games.push_back(GameInfo{1, "bad id", 110.0, 5, 1.0});
  EXPECT_THROW(GameCatalog(std::move(games), std::move(ladder)), cloudfog::ConfigError);
}

TEST(GameCatalog, RejectsDefaultLevelAboveBudget) {
  QualityLadder ladder = QualityLadder::paper_default();
  std::vector<GameInfo> games;
  // Level 5 needs 110 ms but the game only allows 50 ms.
  games.push_back(GameInfo{0, "impossible", 50.0, 5, 0.7});
  EXPECT_THROW(GameCatalog(std::move(games), std::move(ladder)), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::game

// Player activity model (paper §4.1).
//
// Duration classes (ref. [48]): 50 % of players play (0,2] h per day,
// 30 % play (2,5] h, 20 % play (5,24] h. Start times: subcycle drawn from
// [1,19] with probability 30 % and from [20,24] (the evening peak) with
// probability 70 %. Game choice: a random game unless friends are online,
// in which case the game most friends are playing.
#pragma once

#include <vector>

#include "game/game_catalog.hpp"
#include "util/rng.hpp"

namespace cloudfog::game {

enum class DurationClass {
  kCasual,    ///< (0, 2] hours/day — 50 % of players
  kRegular,   ///< (2, 5] hours/day — 30 %
  kHardcore,  ///< (5, 24] hours/day — 20 %
};

struct ActivityModelConfig {
  double casual_fraction = 0.50;
  double regular_fraction = 0.30;   // hardcore takes the remainder
  double offpeak_start_prob = 0.30; ///< P(start subcycle ∈ [1,19])
};

class ActivityModel {
 public:
  explicit ActivityModel(ActivityModelConfig cfg = {});

  const ActivityModelConfig& config() const { return cfg_; }

  /// Assigns a player's long-term duration class.
  DurationClass sample_duration_class(util::Rng& rng) const;

  /// Hours played today given the class (uniform within the class range).
  double sample_play_hours(DurationClass cls, util::Rng& rng) const;

  /// Start subcycle for today's session (1-based).
  int sample_start_subcycle(util::Rng& rng) const;

  /// Picks the game to play: the mode of `friend_games` (game ids of
  /// friends currently online) or a uniformly random game when empty.
  GameId choose_game(const GameCatalog& catalog, const std::vector<GameId>& friend_games,
                     util::Rng& rng) const;

 private:
  ActivityModelConfig cfg_;
};

/// A player's plan for one day: when to start and how long to stay.
struct DailySession {
  int start_subcycle = 1;  ///< 1-based
  double hours = 1.0;
  /// True if the player is online during `subcycle` (wraps past midnight
  /// into nothing — sessions truncate at the end of the day, as cycles in
  /// the paper are independent days).
  bool online_at(int subcycle) const;
};

/// Rolls a full daily session for a player.
DailySession roll_daily_session(const ActivityModel& model, DurationClass cls, util::Rng& rng);

}  // namespace cloudfog::game

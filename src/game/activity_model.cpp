#include "game/activity_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "sim/cycle_config.hpp"
#include "util/require.hpp"

namespace cloudfog::game {

ActivityModel::ActivityModel(ActivityModelConfig cfg) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.casual_fraction >= 0.0 && cfg.regular_fraction >= 0.0 &&
                       cfg.casual_fraction + cfg.regular_fraction <= 1.0,
                   "duration-class fractions must form a distribution");
  CLOUDFOG_REQUIRE(cfg.offpeak_start_prob >= 0.0 && cfg.offpeak_start_prob <= 1.0,
                   "start probability out of [0,1]");
}

DurationClass ActivityModel::sample_duration_class(util::Rng& rng) const {
  const double u = rng.next_double();
  if (u < cfg_.casual_fraction) return DurationClass::kCasual;
  if (u < cfg_.casual_fraction + cfg_.regular_fraction) return DurationClass::kRegular;
  return DurationClass::kHardcore;
}

double ActivityModel::sample_play_hours(DurationClass cls, util::Rng& rng) const {
  switch (cls) {
    case DurationClass::kCasual:
      return rng.uniform(0.25, 2.0);
    case DurationClass::kRegular:
      return rng.uniform(2.0, 5.0);
    case DurationClass::kHardcore:
      return rng.uniform(5.0, 24.0);
  }
  return 1.0;
}

int ActivityModel::sample_start_subcycle(util::Rng& rng) const {
  if (rng.chance(cfg_.offpeak_start_prob)) {
    return static_cast<int>(rng.uniform_int(1, sim::CycleConfig::peak_start_subcycle - 1));
  }
  return static_cast<int>(rng.uniform_int(sim::CycleConfig::peak_start_subcycle,
                                          sim::CycleConfig::subcycles_per_cycle));
}

GameId ActivityModel::choose_game(const GameCatalog& catalog,
                                  const std::vector<GameId>& friend_games,
                                  util::Rng& rng) const {
  if (friend_games.empty()) return catalog.random_game(rng).id;
  std::map<GameId, int> votes;
  for (GameId g : friend_games) ++votes[g];
  GameId best = friend_games.front();
  int best_votes = 0;
  for (const auto& [game, count] : votes) {
    if (count > best_votes) {
      best_votes = count;
      best = game;
    }
  }
  return best;
}

bool DailySession::online_at(int subcycle) const {
  if (subcycle < start_subcycle || subcycle > sim::CycleConfig::subcycles_per_cycle) return false;
  const int covered = static_cast<int>(std::ceil(hours));
  return subcycle < start_subcycle + covered;
}

DailySession roll_daily_session(const ActivityModel& model, DurationClass cls, util::Rng& rng) {
  DailySession session;
  session.start_subcycle = model.sample_start_subcycle(rng);
  session.hours = model.sample_play_hours(cls, rng);
  return session;
}

}  // namespace cloudfog::game

#include "game/workload.hpp"

#include <cmath>
#include <numbers>

#include "sim/cycle_config.hpp"
#include "util/require.hpp"

namespace cloudfog::game {

using sim::CycleConfig;

WorkloadGenerator::WorkloadGenerator(WorkloadConfig cfg, util::Rng rng)
    : cfg_(cfg), rng_(rng) {
  CLOUDFOG_REQUIRE(cfg.base_players >= 0.0, "base players must be non-negative");
  CLOUDFOG_REQUIRE(cfg.peak_players >= cfg.base_players, "peak below base");
  CLOUDFOG_REQUIRE(cfg.weekly_noise >= 0.0 && cfg.weekly_noise < 1.0,
                   "noise must be in [0,1)");
  CLOUDFOG_REQUIRE(cfg.weekly_growth > -1.0, "growth cannot wipe out the population");
}

double WorkloadGenerator::expected_players(int day, int subcycle) const {
  CLOUDFOG_REQUIRE(day >= 1, "days are 1-based");
  CLOUDFOG_REQUIRE(subcycle >= 1 && subcycle <= CycleConfig::subcycles_per_cycle,
                   "subcycle out of range");
  // Smooth daily curve: a raised cosine centred on the middle of the peak
  // window, so the population ramps up through the evening and falls off
  // after midnight — matching the measured diurnal MMOG pattern.
  const double peak_centre =
      0.5 * (CycleConfig::peak_start_subcycle + CycleConfig::peak_end_subcycle);
  const double phase = 2.0 * std::numbers::pi *
                       (static_cast<double>(subcycle) - peak_centre) /
                       static_cast<double>(CycleConfig::subcycles_per_cycle);
  const double daily = 0.5 * (1.0 + std::cos(phase));  // 1 at peak centre
  double players = cfg_.base_players + (cfg_.peak_players - cfg_.base_players) * daily;

  const int day_of_week = (day - 1) % 7;  // 0 = Monday
  if (day_of_week >= 5) players *= cfg_.weekend_boost;
  const int week = (day - 1) / 7;
  players *= std::pow(1.0 + cfg_.weekly_growth, static_cast<double>(week));
  return players;
}

double WorkloadGenerator::noise_for(int day, int subcycle) {
  const auto idx = static_cast<std::size_t>((day - 1) * CycleConfig::subcycles_per_cycle +
                                            (subcycle - 1));
  while (noise_cache_.size() <= idx) {
    noise_cache_.push_back(rng_.uniform(-cfg_.weekly_noise, cfg_.weekly_noise));
  }
  return noise_cache_[idx];
}

double WorkloadGenerator::players(int day, int subcycle) {
  return expected_players(day, subcycle) * (1.0 + noise_for(day, subcycle));
}

std::vector<double> WorkloadGenerator::series(int days) {
  CLOUDFOG_REQUIRE(days >= 1, "need at least one day");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(days * CycleConfig::subcycles_per_cycle));
  for (int day = 1; day <= days; ++day) {
    for (int sub = 1; sub <= CycleConfig::subcycles_per_cycle; ++sub) {
      out.push_back(players(day, sub));
    }
  }
  return out;
}

}  // namespace cloudfog::game

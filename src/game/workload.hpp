// Diurnal/weekly MMOG workload generator.
//
// §3.5 and refs [36,37]: MMOG populations follow a regular weekly pattern
// with week-to-week variation under 10 %, e.g. "the trend of this Friday's
// online players mirrors that of last Friday". The generator produces the
// expected online-player count for every time window of a run: a smooth
// daily curve (evening peak), a weekly weekday/weekend modulation, and a
// bounded multiplicative noise term. The day is sim::CycleConfig's: its
// subcycles and its evening peak window. The SARIMA forecaster
// (src/forecast) is evaluated against exactly this process.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace cloudfog::game {

struct WorkloadConfig {
  double base_players = 2000.0;   ///< off-peak weekday floor
  double peak_players = 10000.0;  ///< weekday evening peak
  double weekend_boost = 1.25;    ///< Sat/Sun multiplier
  double weekly_noise = 0.08;     ///< max |week-to-week| relative deviation (<10 %)
  /// Week-over-week population growth (a launch-phase MMOG); 0 = the
  /// stationary pattern of [36,37].
  double weekly_growth = 0.0;
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadConfig cfg, util::Rng rng);

  const WorkloadConfig& config() const { return cfg_; }

  /// Expected (noise-free) player count at day `day` (1-based),
  /// subcycle `subcycle` (1-based). Weeks start on day 1 (a Monday).
  double expected_players(int day, int subcycle) const;

  /// Noisy realization; deterministic per (day, subcycle) for a given
  /// generator seed, so repeated queries agree.
  double players(int day, int subcycle);

  /// Generates the full series for `days` days, one value per subcycle.
  std::vector<double> series(int days);

 private:
  double noise_for(int day, int subcycle);

  WorkloadConfig cfg_;
  util::Rng rng_;
  std::vector<double> noise_cache_;  // indexed by global subcycle
};

}  // namespace cloudfog::game

// Dynamic supernode provisioning (paper §3.5).
//
// Every m-hour window the provider forecasts the next window's online
// population with the seasonal ARIMA model (Eq. 14), sizes the fleet as
//   N_s = (1 + ε) · N̂ / Ĉ                              (Eq. 15)
// where Ĉ is the mean supernode capacity, and picks which candidates to
// deploy with the rank-harmonic rule
//   P_j = (1/j) / Σ_{n=1..N} (1/n)                      (Eq. 16)
// over candidates ranked by the number of players they supported in the
// previous window (busy areas stay covered).
#pragma once

#include <cstddef>
#include <vector>

#include "core/entities.hpp"
#include "forecast/sarima.hpp"
#include "obs/recorder.hpp"
#include "sim/cycle_config.hpp"
#include "util/rng.hpp"

namespace cloudfog::core {

/// m, the paper's forecasting window in one-hour subcycles, and T = 24·7/m,
/// the number of such windows in a week: the SARIMA season.
inline constexpr int kForecastWindowHours = 4;
inline constexpr std::size_t kWindowsPerWeek =
    7 * sim::CycleConfig::subcycles_per_cycle / kForecastWindowHours;

struct ProvisionerConfig {
  int window_hours = kForecastWindowHours;  ///< m — forecasting window length
  /// ε — fleet over-provisioning factor. Eq. 15 sizes the fleet by raw
  /// seat count; seats are only useful where players are, so ε must also
  /// absorb the geographic imbalance between seat supply and demand.
  double epsilon = 1.0;
  /// T = 24·7/m by default; log-space, since populations are
  /// multiplicative (see SarimaConfig::log_transform).
  forecast::SarimaConfig sarima{kWindowsPerWeek, 0.3, 0.3, true};
};

class Provisioner {
 public:
  /// Reports windows and forecast/deploy time into `rec`.
  Provisioner(ProvisionerConfig cfg, obs::Recorder& rec);

  const ProvisionerConfig& config() const { return cfg_; }

  /// Feeds the realized online-player count of the window that just ended.
  void observe_window(double online_players);

  /// Eq. 15: supernodes to deploy for the forecast next window. Returns 0
  /// before any history exists. `mean_capacity` is Ĉ.
  std::size_t supernodes_needed(double mean_capacity) const;

  /// Forecast for the next window (persistence until a season of history).
  double forecast_players() const;

  /// Eq. 16: chooses `wanted` distinct supernodes from `fleet` and sets
  /// their `deployed` flags (true for chosen, false for the rest).
  /// Candidates are ranked by supported_last_window descending and drawn
  /// without replacement with rank-harmonic probability; failed
  /// supernodes are skipped. Returns the number actually deployed.
  std::size_t deploy(std::vector<SupernodeState>& fleet, std::size_t wanted,
                     util::Rng& rng) const;

  std::size_t windows_observed() const { return model_.observations(); }

 private:
  ProvisionerConfig cfg_;
  obs::Recorder& rec_;
  forecast::SeasonalArima model_;
};

}  // namespace cloudfog::core

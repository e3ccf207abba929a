#include "core/provisioner.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

Provisioner::Provisioner(ProvisionerConfig cfg, obs::Recorder& rec)
    : cfg_(cfg), rec_(rec), model_(cfg.sarima) {
  CLOUDFOG_REQUIRE(
      cfg.window_hours >= 1 && cfg.window_hours <= sim::CycleConfig::subcycles_per_cycle,
      "window must be between one hour and one day");
  CLOUDFOG_REQUIRE(cfg.epsilon >= 0.0, "ε must be non-negative");
}

void Provisioner::observe_window(double online_players) {
  CLOUDFOG_REQUIRE(online_players >= 0.0, "negative player count");
  if (rec_.enabled()) {
    static const obs::CounterId windows = rec_.registry().counter("provision.windows");
    rec_.registry().add(windows);
  }
  // Log-space models need positive values; an empty system still counts
  // as (almost) nobody online.
  model_.observe(std::max(online_players, 1.0));
}

double Provisioner::forecast_players() const {
  CLOUDFOG_TIMED_SCOPE(rec_, "provision.forecast");
  return model_.forecast_next().value_or(0.0);
}

std::size_t Provisioner::supernodes_needed(double mean_capacity) const {
  CLOUDFOG_REQUIRE(mean_capacity > 0.0, "mean capacity must be positive");
  const double n_hat = forecast_players();
  return static_cast<std::size_t>(std::ceil((1.0 + cfg_.epsilon) * n_hat / mean_capacity));
}

std::size_t Provisioner::deploy(std::vector<SupernodeState>& fleet, std::size_t wanted,
                                util::Rng& rng) const {
  CLOUDFOG_TIMED_SCOPE(rec_, "provision.deploy");
  // Rank candidates by last window's supported players, descending
  // (stable on id for determinism).
  std::vector<std::size_t> ranked;
  ranked.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (!fleet[i].failed) ranked.push_back(i);
  }
  std::stable_sort(ranked.begin(), ranked.end(), [&fleet](std::size_t a, std::size_t b) {
    return fleet[a].supported_last_window > fleet[b].supported_last_window;
  });

  for (auto& sn : fleet) sn.deployed = false;

  const std::size_t target = std::min(wanted, ranked.size());
  // Sample without replacement with rank-harmonic weights: draw from the
  // remaining candidates with P ∝ 1/rank until `target` are chosen.
  std::vector<double> weight(ranked.size());
  for (std::size_t j = 0; j < ranked.size(); ++j) weight[j] = 1.0 / static_cast<double>(j + 1);
  std::size_t deployed = 0;
  double weight_left = 0.0;
  for (double w : weight) weight_left += w;
  std::vector<bool> taken(ranked.size(), false);
  while (deployed < target) {
    double u = rng.next_double() * weight_left;
    std::size_t pick = ranked.size();
    for (std::size_t j = 0; j < ranked.size(); ++j) {
      if (taken[j]) continue;
      if (u < weight[j]) {
        pick = j;
        break;
      }
      u -= weight[j];
    }
    if (pick == ranked.size()) {
      // Numerical tail: take the first free candidate.
      for (std::size_t j = 0; j < ranked.size(); ++j) {
        if (!taken[j]) {
          pick = j;
          break;
        }
      }
    }
    taken[pick] = true;
    weight_left -= weight[pick];
    fleet[ranked[pick]].deployed = true;
    ++deployed;
  }
  return deployed;
}

}  // namespace cloudfog::core

// Contributor-market dynamics (§3.1.1 made operational).
//
// The paper: "An organization or a player considers to contribute a
// supernode only when it brings about certain profit … different
// contributors set their own thresholds based on their expectations."
// This module simulates that feedback loop. Each round:
//   * the fog's streaming demand is split across the active fleet
//     (proportionally to capacity), fixing every contributor's
//     utilization u_j;
//   * each active contributor evaluates Eq. 1 profit and withdraws if it
//     falls below its personal threshold;
//   * each inactive candidate estimates the profit it would make at the
//     fleet's current utilization and joins if that clears its threshold.
// The fleet converges to an equilibrium where marginal contributors are
// indifferent — which is how the provider's choice of c_s (the per-unit
// reward) controls the fleet size.
#pragma once

#include <cstddef>
#include <vector>

#include "economics/incentives.hpp"
#include "util/rng.hpp"

namespace cloudfog::economics {

struct Contributor {
  double upload_capacity = 10.0;   ///< c_j (bandwidth units)
  double running_cost = 0.3;       ///< cost_j per round
  double profit_threshold = 0.5;   ///< joins/stays only above this
  bool active = false;
};

struct ContributorMarketConfig {
  double reward_per_unit = 0.5;  ///< c_s
  /// Join inertia: an eligible candidate joins each round with this
  /// probability (contributors do not all react instantly).
  double join_probability = 0.3;
};

struct MarketRound {
  std::size_t active = 0;
  double fleet_capacity = 0.0;     ///< Σ c_j over active contributors
  double mean_utilization = 0.0;   ///< demand-driven u of the fleet
  double served_demand = 0.0;      ///< min(demand, fleet capacity)
  std::size_t joined = 0;
  std::size_t left = 0;
};

class ContributorMarket {
 public:
  ContributorMarket(std::vector<Contributor> candidates, ContributorMarketConfig cfg,
                    util::Rng rng);

  const ContributorMarketConfig& config() const { return cfg_; }
  const std::vector<Contributor>& candidates() const { return candidates_; }
  std::size_t active_count() const;
  double active_capacity() const;

  /// One decision round against `demand` bandwidth units of fog traffic.
  MarketRound step(double demand);

  /// Runs rounds until joins+leaves is 0 (or `max_rounds`); returns the
  /// last round's state.
  MarketRound run_to_equilibrium(double demand, int max_rounds = 200);

 private:
  /// Fleet-wide utilization if `capacity` is active under `demand`.
  static double utilization(double demand, double capacity);

  std::vector<Contributor> candidates_;
  ContributorMarketConfig cfg_;
  util::Rng rng_;
};

/// A population of heterogeneous candidates for the market experiments.
std::vector<Contributor> sample_contributor_population(std::size_t n, util::Rng& rng);

}  // namespace cloudfog::economics

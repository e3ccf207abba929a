// Incentive and bandwidth-economics model (paper §3.1.1–§3.1.2, Eqs. 1–6).
//
// Supernode side: a contributor earns c_s per unit of contributed upload
// bandwidth and pays its own running costs, so its profit is
//   P_s(j) = c_s · c_j · u_j − cost_j                         (Eq. 1)
//
// Provider side: with N players streaming at rate R, m supernodes (update
// feed Λ each) covering n players, the cloud's bandwidth reduction is
//   B_r = N·R − Λ·m − (N−n)·R = n·R − Λ·m                     (Eq. 2)
// and the provider's saving, rewarding total supernode contribution B_s,
//   C_g = c_c·(n·R − Λ·m) − c_s·B_s                           (Eq. 3)
// subject to Σ c_j·u_j ≥ n·R and 0 ≤ u_j ≤ 1                  (Eqs. 4–5)
// The marginal value of deploying one more supernode covering ν new
// players is
//   G_s(j) = c_c·(ν·R − Λ) − c_s·c_j·u_j                      (Eq. 6)
#pragma once

#include <cstddef>
#include <vector>

namespace cloudfog::economics {

/// One supernode's contribution terms.
struct SupernodeContribution {
  double upload_capacity = 0.0;  ///< c_j, bandwidth units (e.g. Mbps)
  double utilization = 0.0;      ///< u_j ∈ [0,1]
  double running_cost = 0.0;     ///< cost_j, in the same unit as rewards
};

/// Eq. 1 — contributor profit.
double supernode_profit(const SupernodeContribution& sn, double reward_per_unit);

/// Σ c_j·u_j — total supernode bandwidth contribution B_s.
double total_contribution(const std::vector<SupernodeContribution>& sns);

struct ProviderEconomics {
  double streaming_rate = 1.2;      ///< R, Mbps per player stream
  double update_rate = 0.2;         ///< Λ, Mbps of cloud→supernode updates
  double revenue_per_unit = 1.0;    ///< c_c, value of one saved bandwidth unit
  double reward_per_unit = 0.5;     ///< c_s, reward for one contributed unit
};

/// Eq. 2 — cloud bandwidth reduction for n fog-served of N total players
/// with m supernodes.
double bandwidth_reduction(const ProviderEconomics& econ, std::size_t total_players,
                           std::size_t fog_served_players, std::size_t supernodes);

/// Eq. 3 — provider's net saving given the supernode fleet. Callers should
/// check feasibility (Eq. 4) first; the value is still defined otherwise.
double provider_saving(const ProviderEconomics& econ, std::size_t fog_served_players,
                       std::size_t supernodes,
                       const std::vector<SupernodeContribution>& fleet);

/// Eq. 4 — can the fleet actually carry n players' streams?
bool fleet_feasible(const ProviderEconomics& econ, std::size_t fog_served_players,
                    const std::vector<SupernodeContribution>& fleet);

/// Eq. 6 — marginal gain of deploying supernode `sn` that newly covers
/// `new_players` players.
double marginal_supernode_gain(const ProviderEconomics& econ, std::size_t new_players,
                               const SupernodeContribution& sn);

}  // namespace cloudfog::economics

#include "economics/incentives.hpp"

#include "util/require.hpp"

namespace cloudfog::economics {

double supernode_profit(const SupernodeContribution& sn, double reward_per_unit) {
  CLOUDFOG_REQUIRE(sn.upload_capacity >= 0.0, "negative capacity");
  CLOUDFOG_REQUIRE(sn.utilization >= 0.0 && sn.utilization <= 1.0, "utilization out of [0,1]");
  CLOUDFOG_REQUIRE(reward_per_unit >= 0.0, "negative reward");
  return reward_per_unit * sn.upload_capacity * sn.utilization - sn.running_cost;
}

double total_contribution(const std::vector<SupernodeContribution>& sns) {
  double acc = 0.0;
  for (const auto& sn : sns) {
    CLOUDFOG_REQUIRE(sn.utilization >= 0.0 && sn.utilization <= 1.0,
                     "utilization out of [0,1]");
    acc += sn.upload_capacity * sn.utilization;
  }
  return acc;
}

double bandwidth_reduction(const ProviderEconomics& econ, std::size_t total_players,
                           std::size_t fog_served_players, std::size_t supernodes) {
  CLOUDFOG_REQUIRE(fog_served_players <= total_players,
                   "fog-served players exceed total players");
  return static_cast<double>(fog_served_players) * econ.streaming_rate -
         static_cast<double>(supernodes) * econ.update_rate;
}

double provider_saving(const ProviderEconomics& econ, std::size_t fog_served_players,
                       std::size_t supernodes,
                       const std::vector<SupernodeContribution>& fleet) {
  const double b_r = static_cast<double>(fog_served_players) * econ.streaming_rate -
                     static_cast<double>(supernodes) * econ.update_rate;
  return econ.revenue_per_unit * b_r - econ.reward_per_unit * total_contribution(fleet);
}

bool fleet_feasible(const ProviderEconomics& econ, std::size_t fog_served_players,
                    const std::vector<SupernodeContribution>& fleet) {
  return total_contribution(fleet) >=
         static_cast<double>(fog_served_players) * econ.streaming_rate;
}

double marginal_supernode_gain(const ProviderEconomics& econ, std::size_t new_players,
                               const SupernodeContribution& sn) {
  return econ.revenue_per_unit *
             (static_cast<double>(new_players) * econ.streaming_rate - econ.update_rate) -
         econ.reward_per_unit * sn.upload_capacity * sn.utilization;
}

}  // namespace cloudfog::economics

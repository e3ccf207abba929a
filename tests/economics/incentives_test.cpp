#include "economics/incentives.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::economics {
namespace {

TEST(Incentives, Eq1SupernodeProfit) {
  // P_s = c_s·c_j·u_j − cost_j = 0.5·10·0.8 − 1.0 = 3.0.
  const SupernodeContribution sn{10.0, 0.8, 1.0};
  EXPECT_DOUBLE_EQ(supernode_profit(sn, 0.5), 3.0);
}

TEST(Incentives, ProfitCanBeNegative) {
  const SupernodeContribution sn{1.0, 0.1, 5.0};
  EXPECT_LT(supernode_profit(sn, 0.5), 0.0);
}

TEST(Incentives, TotalContributionSums) {
  const std::vector<SupernodeContribution> fleet{
      {10.0, 1.0, 0.0}, {20.0, 0.5, 0.0}, {6.0, 0.0, 0.0}};
  EXPECT_DOUBLE_EQ(total_contribution(fleet), 20.0);
}

TEST(Incentives, Eq2BandwidthReduction) {
  // B_r = n·R − Λ·m = 100·1.2 − 0.2·10 = 118.
  ProviderEconomics econ;
  econ.streaming_rate = 1.2;
  econ.update_rate = 0.2;
  EXPECT_DOUBLE_EQ(bandwidth_reduction(econ, 500, 100, 10), 118.0);
}

TEST(Incentives, Eq3ProviderSaving) {
  ProviderEconomics econ;
  econ.streaming_rate = 1.0;
  econ.update_rate = 0.0;
  econ.revenue_per_unit = 1.0;
  econ.reward_per_unit = 0.5;
  const std::vector<SupernodeContribution> fleet{{100.0, 1.0, 0.0}};
  // saving = 1·(100·1 − 0) − 0.5·100 = 50.
  EXPECT_DOUBLE_EQ(provider_saving(econ, 100, 1, fleet), 50.0);
}

TEST(Incentives, FewerSupernodesSaveMore) {
  // Eq. 3 insight: for fixed coverage n, fewer supernodes (less Λ) is
  // cheaper.
  ProviderEconomics econ;
  const std::vector<SupernodeContribution> fleet{{100.0, 1.0, 0.0}};
  EXPECT_GT(provider_saving(econ, 100, 5, fleet), provider_saving(econ, 100, 50, fleet));
}

TEST(Incentives, Eq4Feasibility) {
  ProviderEconomics econ;
  econ.streaming_rate = 1.0;
  const std::vector<SupernodeContribution> fleet{{10.0, 1.0, 0.0}};
  EXPECT_TRUE(fleet_feasible(econ, 10, fleet));
  EXPECT_FALSE(fleet_feasible(econ, 11, fleet));
}

TEST(Incentives, Eq6MarginalGain) {
  // G_s = c_c·(ν·R − Λ) − c_s·c_j·u_j = 1·(5·1.2 − 0.2) − 0.5·4 = 3.8.
  ProviderEconomics econ;
  econ.streaming_rate = 1.2;
  econ.update_rate = 0.2;
  econ.revenue_per_unit = 1.0;
  econ.reward_per_unit = 0.5;
  const SupernodeContribution sn{8.0, 0.5, 0.0};
  EXPECT_DOUBLE_EQ(marginal_supernode_gain(econ, 5, sn), 3.8);
}

TEST(Incentives, MarginalGainNegativeForUselessSupernode) {
  const ProviderEconomics econ;
  const SupernodeContribution sn{10.0, 1.0, 0.0};
  EXPECT_LT(marginal_supernode_gain(econ, 0, sn), 0.0);
}

TEST(Incentives, Validation) {
  EXPECT_THROW(supernode_profit({-1.0, 0.5, 0.0}, 1.0), cloudfog::ConfigError);
  EXPECT_THROW(supernode_profit({1.0, 1.5, 0.0}, 1.0), cloudfog::ConfigError);
  ProviderEconomics econ;
  EXPECT_THROW(bandwidth_reduction(econ, 10, 11, 0), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::economics

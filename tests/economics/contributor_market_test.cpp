#include "economics/contributor_market.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::economics {
namespace {

std::vector<Contributor> uniform_candidates(std::size_t n, double capacity = 10.0,
                                            double cost = 0.3, double threshold = 0.5) {
  return std::vector<Contributor>(n, Contributor{capacity, cost, threshold, false});
}

ContributorMarketConfig market_cfg(double reward) {
  ContributorMarketConfig cfg;
  cfg.reward_per_unit = reward;
  cfg.join_probability = 1.0;  // deterministic for unit tests
  return cfg;
}

TEST(ContributorMarket, NobodyJoinsWithoutReward) {
  ContributorMarket market(uniform_candidates(50), market_cfg(0.0), util::Rng(1));
  const auto round = market.run_to_equilibrium(100.0);
  EXPECT_EQ(round.active, 0u);
  EXPECT_DOUBLE_EQ(round.served_demand, 0.0);
}

TEST(ContributorMarket, GenerousRewardFillsTheFleet) {
  ContributorMarket market(uniform_candidates(50), market_cfg(5.0), util::Rng(2));
  const auto round = market.run_to_equilibrium(1000.0);
  // At c_s = 5, even fully diluted utilization clears every threshold.
  EXPECT_EQ(round.active, 50u);
}

TEST(ContributorMarket, FleetSizeGrowsWithReward) {
  util::Rng pop_rng(3);
  const auto population = sample_contributor_population(300, pop_rng);
  std::size_t prev = 0;
  for (double reward : {0.1, 0.3, 0.8, 2.0}) {
    ContributorMarketConfig cfg = market_cfg(reward);
    cfg.join_probability = 0.5;
    ContributorMarket market(population, cfg, util::Rng(4));
    const auto round = market.run_to_equilibrium(2000.0);
    EXPECT_GE(round.active + 5, prev);  // monotone up to small noise
    prev = round.active;
  }
  EXPECT_GT(prev, 50u);
}

TEST(ContributorMarket, DilutionStopsUnboundedGrowth) {
  // With fixed demand, every join lowers everyone's utilization, so the
  // fleet settles where the marginal contributor is indifferent — it must
  // NOT absorb the whole candidate pool under a modest reward.
  ContributorMarket market(uniform_candidates(200, 10.0, 0.3, 0.9),
                           market_cfg(0.5), util::Rng(5));
  const auto round = market.run_to_equilibrium(300.0);
  EXPECT_GT(round.active, 5u);
  EXPECT_LT(round.active, 200u);
  // Served demand is covered (the fleet is at least demand-sized) or the
  // fleet is profit-limited below it; either way utilization is high.
  EXPECT_GT(round.mean_utilization, 0.2);
}

TEST(ContributorMarket, DemandCollapseTriggersExodus) {
  ContributorMarket market(uniform_candidates(100), market_cfg(2.0), util::Rng(6));
  const auto before = market.run_to_equilibrium(500.0);
  ASSERT_GT(before.active, 20u);
  // With nothing to serve, utilization and so every profit falls to zero.
  const auto after = market.run_to_equilibrium(0.0);
  EXPECT_EQ(after.active, 0u);
}

TEST(ContributorMarket, EquilibriumIsStable) {
  ContributorMarket market(uniform_candidates(100, 10.0, 0.3, 0.8),
                           market_cfg(0.6), util::Rng(7));
  market.run_to_equilibrium(400.0);
  const std::size_t settled = market.active_count();
  for (int i = 0; i < 10; ++i) {
    const auto round = market.step(400.0);
    EXPECT_EQ(round.joined, 0u);
    EXPECT_EQ(round.left, 0u);
  }
  EXPECT_EQ(market.active_count(), settled);
}

TEST(ContributorMarket, ServedDemandTracksFleet) {
  ContributorMarket market(uniform_candidates(20, 10.0), market_cfg(3.0), util::Rng(8));
  const auto round = market.run_to_equilibrium(1000.0);
  EXPECT_DOUBLE_EQ(round.served_demand, round.fleet_capacity);  // under-provisioned
  const auto light = market.run_to_equilibrium(50.0);
  EXPECT_LE(light.served_demand, 50.0 + 1e-9);
}

TEST(ContributorMarket, PopulationSamplerProducesSaneCandidates) {
  util::Rng rng(9);
  const auto population = sample_contributor_population(500, rng);
  ASSERT_EQ(population.size(), 500u);
  for (const auto& c : population) {
    EXPECT_GE(c.upload_capacity, 5.0);
    EXPECT_LE(c.upload_capacity, 60.0);
    EXPECT_GT(c.profit_threshold, 0.0);
    EXPECT_FALSE(c.active);
  }
}

TEST(ContributorMarket, Validation) {
  EXPECT_THROW(ContributorMarket({}, market_cfg(1.0), util::Rng(1)),
               cloudfog::ConfigError);
  EXPECT_THROW(ContributorMarket(uniform_candidates(5), market_cfg(-1.0), util::Rng(1)),
               cloudfog::ConfigError);
  ContributorMarket market(uniform_candidates(5), market_cfg(1.0), util::Rng(1));
  EXPECT_THROW(market.step(-1.0), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::economics

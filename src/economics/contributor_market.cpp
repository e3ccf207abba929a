#include "economics/contributor_market.hpp"

#include <algorithm>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::economics {

ContributorMarket::ContributorMarket(std::vector<Contributor> candidates,
                                     ContributorMarketConfig cfg, util::Rng rng)
    : candidates_(std::move(candidates)), cfg_(cfg), rng_(rng) {
  CLOUDFOG_REQUIRE(!candidates_.empty(), "market needs candidates");
  CLOUDFOG_REQUIRE(cfg.reward_per_unit >= 0.0, "negative reward");
  CLOUDFOG_REQUIRE(cfg.join_probability > 0.0 && cfg.join_probability <= 1.0,
                   "join probability out of (0,1]");
}

std::size_t ContributorMarket::active_count() const {
  std::size_t n = 0;
  for (const auto& c : candidates_) {
    if (c.active) ++n;
  }
  return n;
}

double ContributorMarket::active_capacity() const {
  double cap = 0.0;
  for (const auto& c : candidates_) {
    if (c.active) cap += c.upload_capacity;
  }
  return cap;
}

double ContributorMarket::utilization(double demand, double capacity) {
  if (capacity <= 0.0) return 1.0;
  return std::min(1.0, demand / capacity);
}

MarketRound ContributorMarket::step(double demand) {
  CLOUDFOG_REQUIRE(demand >= 0.0, "negative demand");
  MarketRound round;

  // Utilization each participant experiences this round: demand shared
  // proportionally to capacity, so u is fleet-wide.
  const double capacity_now = active_capacity();
  const double u_now = utilization(demand, capacity_now);

  // Leave decisions use the current round's realized profit (Eq. 1).
  for (auto& c : candidates_) {
    if (!c.active) continue;
    const SupernodeContribution sn{c.upload_capacity, u_now, c.running_cost};
    if (supernode_profit(sn, cfg_.reward_per_unit) < c.profit_threshold) {
      c.active = false;
      ++round.left;
    }
  }

  // Join decisions estimate the utilization after they join (their own
  // capacity dilutes the pool).
  for (auto& c : candidates_) {
    if (c.active) continue;
    const double u_if_joined =
        utilization(demand, active_capacity() + c.upload_capacity);
    const SupernodeContribution sn{c.upload_capacity, u_if_joined, c.running_cost};
    if (supernode_profit(sn, cfg_.reward_per_unit) >= c.profit_threshold &&
        rng_.chance(cfg_.join_probability)) {
      c.active = true;
      ++round.joined;
    }
  }

  round.active = active_count();
  round.fleet_capacity = active_capacity();
  round.mean_utilization = utilization(demand, round.fleet_capacity);
  round.served_demand = std::min(demand, round.fleet_capacity);
  return round;
}

MarketRound ContributorMarket::run_to_equilibrium(double demand, int max_rounds) {
  CLOUDFOG_REQUIRE(max_rounds >= 1, "need at least one round");
  MarketRound last;
  for (int i = 0; i < max_rounds; ++i) {
    last = step(demand);
    if (last.joined == 0 && last.left == 0) break;
  }
  return last;
}

std::vector<Contributor> sample_contributor_population(std::size_t n, util::Rng& rng) {
  // Capacities like the supernode fleet (heavy-tailed), electricity-scale
  // costs, and expectation thresholds spread over an order of magnitude.
  const util::BoundedParetoDistribution capacity(5.0, 60.0, 2.0);
  std::vector<Contributor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Contributor c;
    c.upload_capacity = capacity.sample(rng);
    c.running_cost = rng.uniform(0.1, 0.6);
    c.profit_threshold = rng.uniform(0.2, 2.5);
    out.push_back(c);
  }
  return out;
}

}  // namespace cloudfog::economics

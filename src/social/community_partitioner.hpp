// Social-network-based server assignment (paper §3.4, steps 1–6).
//
// Given z servers, partition the (explicit ∪ implicit) friend graph into z
// communities so that friends who play together land on the same server:
//   1. start with everyone unassigned (community g1);
//   2. pick a random player, pull it and its friends into a new community;
//   3. repeatedly pick a random member of the new community and pull in
//      its friends, until the community holds ≥ |V|/z players;
//   4. repeat until z communities exist (the last takes the remainder);
//   5. hill-climb: pick random players n_i, n_j from two random distinct
//      communities, swap n_i+F(i) with n_j+F(j); keep the swap iff the
//      modularity Γ improves, otherwise it is a "Miss";
//   6. stop after h1 swap trials or h2 consecutive Misses.
//
// Complexity: each trial is scored in place from integer tallies
// (ModularityState::score_swap) in O(Σ deg of the moved nodes), with no
// mutation on a Miss; an accepted swap is written back in O(moved nodes).
// That replaces the paper's O(h1·z²) bound with O(h1·Σ deg).
#pragma once

#include "social/modularity.hpp"
#include "social/social_graph.hpp"
#include "util/rng.hpp"

namespace cloudfog::social {

struct PartitionerConfig {
  int communities = 8;            ///< z — number of servers
  int max_swap_trials = 1000;     ///< h1
  int max_consecutive_miss = 100; ///< h2 (must be < h1)
};

struct PartitionerResult {
  Partition partition;          ///< player -> community (= server index)
  double initial_modularity = 0.0;
  double final_modularity = 0.0;
  int swap_trials = 0;
  int accepted_swaps = 0;
  bool stopped_by_miss_streak = false;
};

class CommunityPartitioner {
 public:
  explicit CommunityPartitioner(PartitionerConfig cfg);

  /// Runs the full greedy-growth + swap optimization.
  PartitionerResult partition(const SocialGraph& graph, util::Rng& rng) const;

  /// Step 1–4 only: the greedy friend-closure seeding.
  Partition greedy_seed(const SocialGraph& graph, util::Rng& rng) const;

  const PartitionerConfig& config() const { return cfg_; }

 private:
  PartitionerConfig cfg_;
};

}  // namespace cloudfog::social

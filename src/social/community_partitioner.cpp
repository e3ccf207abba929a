#include "social/community_partitioner.hpp"

#include <algorithm>
#include <numeric>

#include "util/require.hpp"

namespace cloudfog::social {

CommunityPartitioner::CommunityPartitioner(PartitionerConfig cfg) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.communities > 0, "need at least one community");
  CLOUDFOG_REQUIRE(cfg.max_swap_trials >= 0, "h1 must be non-negative");
  CLOUDFOG_REQUIRE(cfg.max_consecutive_miss >= 0, "h2 must be non-negative");
  CLOUDFOG_REQUIRE(cfg.max_consecutive_miss <= cfg.max_swap_trials,
                   "h2 must not exceed h1 (paper requires h2 < h1)");
}

Partition CommunityPartitioner::greedy_seed(const SocialGraph& graph, util::Rng& rng) const {
  const std::size_t n = graph.player_count();
  const int z = cfg_.communities;
  Partition partition(n, -1);
  if (n == 0) return partition;

  const std::size_t target_size = std::max<std::size_t>(1, n / static_cast<std::size_t>(z));

  // Unassigned pool, consumed in random order.
  std::vector<PlayerId> pool(n);
  std::iota(pool.begin(), pool.end(), PlayerId{0});
  std::shuffle(pool.begin(), pool.end(), rng);

  auto pop_unassigned = [&]() -> PlayerId {
    while (!pool.empty()) {
      const PlayerId p = pool.back();
      pool.pop_back();
      if (partition[p] == -1) return p;
    }
    return n;  // sentinel: none left
  };

  for (CommunityId c = 0; c < z; ++c) {
    const bool last = c == z - 1;
    std::vector<PlayerId> members;

    // Step 1/2: seed with a random unassigned player plus its friends.
    const PlayerId seed = pop_unassigned();
    if (seed == n) break;  // everyone assigned already
    auto absorb = [&](PlayerId p) {
      if (partition[p] != -1) return;
      partition[p] = c;
      members.push_back(p);
    };
    absorb(seed);
    for (PlayerId f : graph.friends(seed)) absorb(f);

    // Step 3: grow by friend closure until the size target is met. Picking
    // a random member whose friends are all absorbed is a wasted draw, so
    // bound the attempts and fall back to fresh seeds.
    std::size_t stale_draws = 0;
    while (members.size() < target_size && !last) {
      if (stale_draws >= members.size() + 8) {
        // The community's friend closure is exhausted; inject a fresh seed.
        const PlayerId fresh = pop_unassigned();
        if (fresh == n) break;
        absorb(fresh);
        for (PlayerId f : graph.friends(fresh)) absorb(f);
        stale_draws = 0;
        continue;
      }
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1));
      const std::size_t before = members.size();
      for (PlayerId f : graph.friends(members[idx])) absorb(f);
      stale_draws = members.size() == before ? stale_draws + 1 : 0;
    }

    // Step 4 (last community): absorb every remaining player.
    if (last) {
      for (PlayerId p = 0; p < n; ++p) {
        if (partition[p] == -1) partition[p] = c;
      }
    }
  }

  // If the pool drained before z communities were seeded, any stragglers
  // (none expected) go to community 0.
  for (auto& c : partition) {
    if (c == -1) c = 0;
  }
  return partition;
}

PartitionerResult CommunityPartitioner::partition(const SocialGraph& graph,
                                                  util::Rng& rng) const {
  PartitionerResult result;
  const int z = cfg_.communities;
  ModularityState state(graph, greedy_seed(graph, rng), z);
  result.initial_modularity = state.modularity();

  // Step 5/6: random swap hill-climbing. Each trial is scored in place and
  // the partition changes only when the swap strictly improves Γ.
  const std::size_t n = graph.player_count();
  if (z >= 2 && n >= 2) {
    int consecutive_miss = 0;
    for (int trial = 0; trial < cfg_.max_swap_trials; ++trial) {
      ++result.swap_trials;
      const auto pi = static_cast<PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto pj = static_cast<PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      // A same-community pair scores 0: it costs a trial (matches the
      // paper's "repeat h1 times" accounting) but cannot be a hit.
      if (state.score_swap(pi, pj) > 0) {
        state.commit_swap();
        consecutive_miss = 0;
        ++result.accepted_swaps;
      } else if (++consecutive_miss >= cfg_.max_consecutive_miss &&
                 cfg_.max_consecutive_miss > 0) {
        result.stopped_by_miss_streak = true;
        break;
      }
    }
  }

  result.partition = state.partition();
  result.final_modularity = state.modularity();
  return result;
}

}  // namespace cloudfog::social

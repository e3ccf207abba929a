#include "social/modularity.hpp"

#include <gtest/gtest.h>

#include "social/social_graph.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace cloudfog::social {
namespace {

/// Two triangles joined by one bridge edge — the classic two-community
/// example.
SocialGraph two_triangles() {
  SocialGraph g(6);
  g.add_friendship(0, 1);
  g.add_friendship(1, 2);
  g.add_friendship(0, 2);
  g.add_friendship(3, 4);
  g.add_friendship(4, 5);
  g.add_friendship(3, 5);
  g.add_friendship(2, 3);  // bridge
  return g;
}

TEST(Modularity, HandComputedTwoTriangles) {
  const SocialGraph g = two_triangles();
  const Partition partition{0, 0, 0, 1, 1, 1};
  // 7 edges: 3 intra in A, 3 intra in B, 1 cross.
  // q_AA = 3/7, q_BB = 3/7, q_AB = 1/7 (split ½ each direction).
  // p_A = 3/7 + 0.5/7, Γ = Σ q_aa − p_a² = 6/7 − 2·(3.5/7)² = 6/7 − 0.5.
  EXPECT_NEAR(modularity(g, partition, 2), 6.0 / 7.0 - 0.5, 1e-12);
}

TEST(Modularity, SingleCommunityIsZero) {
  const SocialGraph g = two_triangles();
  const Partition partition(6, 0);
  // Tr(Q) = 1, p_0 = 1 → Γ = 1 − 1 = 0.
  EXPECT_NEAR(modularity(g, partition, 1), 0.0, 1e-12);
}

TEST(Modularity, GoodSplitBeatsBadSplit) {
  const SocialGraph g = two_triangles();
  const double good = modularity(g, {0, 0, 0, 1, 1, 1}, 2);
  const double bad = modularity(g, {0, 1, 0, 1, 0, 1}, 2);
  EXPECT_GT(good, bad);
}

TEST(Modularity, EmptyGraphIsZero) {
  const SocialGraph g(4);
  EXPECT_DOUBLE_EQ(modularity(g, {0, 1, 0, 1}, 2), 0.0);
}

TEST(Modularity, ValidatesInput) {
  const SocialGraph g = two_triangles();
  EXPECT_THROW(modularity(g, {0, 0, 0}, 2), cloudfog::ConfigError);       // size
  EXPECT_THROW(modularity(g, {0, 0, 0, 1, 1, 5}, 2), cloudfog::ConfigError);  // range
}

/// The §3.4 swap as the paper states it, applied to a plain partition:
/// move p_i + F(p_i) (those in c_i) to c_j, then p_j + F(p_j) (those now
/// in c_j) to c_i.
Partition reference_swap(const SocialGraph& g, Partition partition, PlayerId pi,
                         PlayerId pj) {
  const CommunityId ci = partition[pi];
  const CommunityId cj = partition[pj];
  auto move_group = [&](PlayerId center, CommunityId from, CommunityId to) {
    if (partition[center] == from) partition[center] = to;
    for (PlayerId f : g.friends(center)) {
      if (partition[f] == from) partition[f] = to;
    }
  };
  if (ci != cj) {
    move_group(pi, ci, cj);
    move_group(pj, cj, ci);
  }
  return partition;
}

/// Scores (pi, pj) on `state`, checks ΔΦ against the from-scratch oracle
/// and that scoring left the partition untouched, then commits.
void expect_exact_swap(const SocialGraph& g, ModularityState& state, PlayerId pi,
                       PlayerId pj) {
  const int z = state.community_count();
  const Partition before = state.partition();
  const Partition after = reference_swap(g, before, pi, pj);
  const std::int64_t delta = state.score_swap(pi, pj);
  EXPECT_EQ(state.partition(), before);
  EXPECT_EQ(delta, scaled_modularity(g, after, z) - scaled_modularity(g, before, z));
  if (before[pi] == before[pj]) return;
  state.commit_swap();
  EXPECT_EQ(state.partition(), after);
  EXPECT_EQ(state.scaled_modularity(), scaled_modularity(g, after, z));
}

TEST(ModularityState, MatchesFullComputationInitially) {
  const SocialGraph g = two_triangles();
  const Partition partition{0, 0, 0, 1, 1, 1};
  const ModularityState state(g, partition, 2);
  EXPECT_EQ(state.scaled_modularity(), scaled_modularity(g, partition, 2));
  EXPECT_DOUBLE_EQ(state.modularity(), modularity(g, partition, 2));
  // m = 7, L_in = 6, K = (7, 7): Φ = 4·7·6 − 49 − 49 = 70 = 4m²·Γ.
  EXPECT_EQ(state.scaled_modularity(), 70);
}

TEST(ModularityState, MoveUpdatesIncrementally) {
  const SocialGraph g = two_triangles();
  ModularityState state(g, {0, 0, 0, 1, 1, 1}, 2);
  // p_i = 0 pulls {0, 1, 2} into community 1; p_j = 4 then pulls {3, 4, 5}
  // into community 0: the two triangles trade places and Γ is unchanged.
  EXPECT_EQ(state.score_swap(0, 4), 0);
  state.commit_swap();
  const Partition swapped{1, 1, 1, 0, 0, 0};
  EXPECT_EQ(state.partition(), swapped);
  EXPECT_DOUBLE_EQ(state.modularity(), modularity(g, swapped, 2));
  EXPECT_EQ(state.community_of(2), 1);
}

TEST(ModularityState, MoveToSameCommunityIsNoop) {
  const SocialGraph g = two_triangles();
  ModularityState state(g, {0, 0, 0, 1, 1, 1}, 2);
  const std::int64_t before = state.scaled_modularity();
  EXPECT_EQ(state.score_swap(0, 2), 0);
  EXPECT_THROW(state.commit_swap(), cloudfog::ConfigError);
  EXPECT_EQ(state.scaled_modularity(), before);
  EXPECT_EQ(state.partition(), (Partition{0, 0, 0, 1, 1, 1}));
}

TEST(ModularityState, CommunitySizesTracked) {
  const SocialGraph g = two_triangles();
  ModularityState state(g, {0, 0, 0, 1, 1, 1}, 2);
  EXPECT_EQ(state.community_size(0), 3u);
  // A scored but uncommitted swap changes nothing.
  state.score_swap(1, 3);
  EXPECT_EQ(state.community_size(0), 3u);
  state.commit_swap();
  // p_i = 1 moves {1, 0, 2}; p_j = 3 moves {3, 4, 5} and pulls 2 back.
  EXPECT_EQ(state.community_size(0), 4u);
  EXPECT_EQ(state.community_size(1), 2u);
  EXPECT_EQ(state.partition(), (Partition{1, 1, 0, 0, 0, 0}));
}

TEST(ModularityState, ScoringDoesNotMutateAndCommitNeedsAScore) {
  const SocialGraph g = two_triangles();
  ModularityState state(g, {0, 0, 0, 1, 1, 1}, 2);
  EXPECT_THROW(state.commit_swap(), cloudfog::ConfigError);
  state.score_swap(2, 3);
  state.score_swap(0, 5);
  EXPECT_EQ(state.partition(), (Partition{0, 0, 0, 1, 1, 1}));
  state.commit_swap();  // commits the last score only
  EXPECT_EQ(state.partition(), reference_swap(g, {0, 0, 0, 1, 1, 1}, 0, 5));
  EXPECT_THROW(state.commit_swap(), cloudfog::ConfigError);
}

TEST(ModularityState, FriendOfPjInPiGroupIsPulledBack) {
  // c0 = {0, 1, 2}, c1 = {3, 4}. p_j = 3 is a friend of p_i = 0, and so is
  // 1, which p_j also befriends: the p_i move carries 0 and 1 to c1, the
  // p_j move carries them back. Net: {2} → c1, {3, 4} → c0.
  SocialGraph g(5);
  g.add_friendship(0, 1);
  g.add_friendship(0, 2);
  g.add_friendship(0, 3);
  g.add_friendship(3, 1);
  g.add_friendship(3, 4);
  g.add_friendship(2, 4);
  ModularityState state(g, {0, 0, 0, 1, 1}, 2);
  expect_exact_swap(g, state, 0, 3);
  EXPECT_EQ(state.partition(), (Partition{0, 0, 1, 0, 0}));
}

TEST(ModularityState, IsolatedPlayersSwapWithoutChangingGamma) {
  SocialGraph g(6);
  g.add_friendship(0, 1);
  g.add_friendship(1, 2);
  ModularityState state(g, {0, 0, 1, 1, 0, 2}, 3);
  const std::int64_t before = state.scaled_modularity();
  EXPECT_EQ(state.score_swap(4, 5), 0);  // both isolated
  state.commit_swap();
  EXPECT_EQ(state.partition(), (Partition{0, 0, 1, 1, 2, 0}));
  EXPECT_EQ(state.scaled_modularity(), before);
  expect_exact_swap(g, state, 3, 1);  // isolated p_i, connected p_j
  expect_exact_swap(g, state, 2, 4);  // connected p_i, isolated p_j
}

TEST(ModularityState, EdgelessGraphScoresZero) {
  const SocialGraph g(4);
  ModularityState state(g, {0, 1, 0, 1}, 2);
  EXPECT_EQ(state.scaled_modularity(), 0);
  EXPECT_DOUBLE_EQ(state.modularity(), 0.0);
  EXPECT_EQ(state.score_swap(0, 1), 0);
  state.commit_swap();
  EXPECT_EQ(state.partition(), (Partition{1, 0, 0, 1}));
  EXPECT_DOUBLE_EQ(state.modularity(), 0.0);
}

// Property: on random power-law graphs and random partitions, the in-place
// ΔΦ of random trials equals the from-scratch Φ(after) − Φ(before), exactly.
TEST(ModularityState, InPlaceDeltaMatchesRecompute) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(seed * 101);
    const std::size_t n = 50 + 40 * seed;
    const int z = static_cast<int>(2 + seed % 5);
    const auto g = generate_power_law_graph(n, SocialGraphConfig{}, rng);
    Partition partition(n);
    for (auto& c : partition) c = static_cast<CommunityId>(rng.uniform_int(0, z - 1));
    ModularityState state(g, partition, z);
    for (int trial = 0; trial < 300; ++trial) {
      const auto pi = static_cast<PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      PlayerId pj = pi;
      // Every fourth trial forces p_j ∈ F(p_i) when p_i has friends.
      if (trial % 4 == 0 && g.degree(pi) > 0) {
        pj = g.friends(pi)[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(g.degree(pi)) - 1))];
      } else {
        pj = static_cast<PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      }
      const Partition before = state.partition();
      const Partition after = reference_swap(g, before, pi, pj);
      const std::int64_t delta = state.score_swap(pi, pj);
      ASSERT_EQ(delta, scaled_modularity(g, after, z) - scaled_modularity(g, before, z))
          << "seed " << seed << " trial " << trial;
      ASSERT_EQ(state.partition(), before);
      // Commit about half of the cross-community trials so the tallies
      // walk away from the initial partition.
      if (before[pi] != before[pj] && rng.uniform_int(0, 1) == 1) {
        state.commit_swap();
        ASSERT_EQ(state.partition(), after);
      }
    }
    EXPECT_EQ(state.scaled_modularity(), scaled_modularity(g, state.partition(), z));
  }
}

// Property: a long random sequence of committed swaps always agrees with
// the from-scratch computation.
TEST(ModularityState, RandomMoveSequenceMatchesFullRecompute) {
  util::Rng rng(9);
  const auto g = generate_power_law_graph(200, SocialGraphConfig{}, rng);
  Partition partition(200);
  for (auto& c : partition) c = static_cast<CommunityId>(rng.uniform_int(0, 7));
  ModularityState state(g, partition, 8);
  for (int step = 0; step < 500; ++step) {
    const auto pi = static_cast<PlayerId>(rng.uniform_int(0, 199));
    const auto pj = static_cast<PlayerId>(rng.uniform_int(0, 199));
    state.score_swap(pi, pj);
    if (state.community_of(pi) != state.community_of(pj)) state.commit_swap();
  }
  EXPECT_EQ(state.scaled_modularity(), scaled_modularity(g, state.partition(), 8));
  EXPECT_DOUBLE_EQ(state.modularity(), modularity(g, state.partition(), 8));
}

TEST(ModularityState, PerfectCommunitiesScoreHigh) {
  // Ten disjoint cliques of 6, partitioned exactly.
  SocialGraph g(60);
  Partition partition(60);
  for (int c = 0; c < 10; ++c) {
    for (int i = 0; i < 6; ++i) {
      partition[static_cast<std::size_t>(c * 6 + i)] = c;
      for (int j = i + 1; j < 6; ++j) {
        g.add_friendship(static_cast<PlayerId>(c * 6 + i),
                         static_cast<PlayerId>(c * 6 + j));
      }
    }
  }
  // Perfectly separated communities: Γ = 1 − Σ p_a² = 1 − 10·(1/10)² = 0.9.
  EXPECT_NEAR(modularity(g, partition, 10), 0.9, 1e-12);
}

}  // namespace
}  // namespace cloudfog::social

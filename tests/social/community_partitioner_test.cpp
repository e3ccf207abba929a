#include "social/community_partitioner.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::social {
namespace {

SocialGraph clique_graph(int cliques, int size) {
  SocialGraph g(static_cast<std::size_t>(cliques * size));
  for (int c = 0; c < cliques; ++c) {
    for (int i = 0; i < size; ++i) {
      for (int j = i + 1; j < size; ++j) {
        g.add_friendship(static_cast<PlayerId>(c * size + i),
                         static_cast<PlayerId>(c * size + j));
      }
    }
  }
  return g;
}

TEST(Partitioner, SeedAssignsEveryPlayer) {
  util::Rng rng(1);
  const auto g = generate_power_law_graph(500, SocialGraphConfig{}, rng);
  PartitionerConfig cfg;
  cfg.communities = 10;
  const CommunityPartitioner partitioner(cfg);
  const Partition p = partitioner.greedy_seed(g, rng);
  ASSERT_EQ(p.size(), 500u);
  for (CommunityId c : p) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 10);
  }
}

TEST(Partitioner, SeedKeepsSeedFriendsTogether) {
  // Disjoint cliques: friend closure puts each clique into one community.
  const SocialGraph g = clique_graph(8, 10);
  PartitionerConfig cfg;
  cfg.communities = 8;
  cfg.max_swap_trials = 0;
  cfg.max_consecutive_miss = 0;
  const CommunityPartitioner partitioner(cfg);
  util::Rng rng(2);
  const Partition p = partitioner.greedy_seed(g, rng);
  int split_cliques = 0;
  for (int c = 0; c < 8; ++c) {
    const CommunityId first = p[static_cast<std::size_t>(c * 10)];
    for (int i = 1; i < 10; ++i) {
      if (p[static_cast<std::size_t>(c * 10 + i)] != first) {
        ++split_cliques;
        break;
      }
    }
  }
  // Friend closure is clique closure here; few cliques may split when the
  // last community absorbs leftovers.
  EXPECT_LE(split_cliques, 2);
}

TEST(Partitioner, SwapPhaseNeverDecreasesModularity) {
  util::Rng rng(3);
  const auto g = generate_power_law_graph(400, SocialGraphConfig{}, rng);
  PartitionerConfig cfg;
  cfg.communities = 8;
  cfg.max_swap_trials = 500;
  cfg.max_consecutive_miss = 200;
  const CommunityPartitioner partitioner(cfg);
  const auto result = partitioner.partition(g, rng);
  EXPECT_GE(result.final_modularity, result.initial_modularity);
  EXPECT_DOUBLE_EQ(result.final_modularity,
                   modularity(g, result.partition, cfg.communities));
}

TEST(Partitioner, ZeroGainSwapsAreMisses) {
  // A perfect matching: the greedy seed keeps every pair together, so every
  // cross-community swap trades two pairs and leaves Γ exactly unchanged.
  // "Keep the swap iff Γ improves" then accepts nothing.
  constexpr std::size_t kPlayers = 1000;
  SocialGraph g(kPlayers);
  for (std::size_t k = 0; k < kPlayers / 2; ++k) g.add_friendship(2 * k, 2 * k + 1);
  PartitionerConfig cfg;
  cfg.communities = 5;
  cfg.max_swap_trials = 5000;
  cfg.max_consecutive_miss = 5000;
  const CommunityPartitioner partitioner(cfg);
  constexpr std::uint64_t kSeed = 1000 * 31 + 5;
  util::Rng rng(kSeed);
  const auto result = partitioner.partition(g, rng);
  util::Rng seed_rng(kSeed);
  EXPECT_EQ(result.accepted_swaps, 0);
  EXPECT_EQ(result.partition, partitioner.greedy_seed(g, seed_rng));
  EXPECT_DOUBLE_EQ(result.final_modularity, result.initial_modularity);
}

TEST(Partitioner, ImprovesClusteredGraphBeyondRandom) {
  const SocialGraph g = clique_graph(12, 8);
  PartitionerConfig cfg;
  cfg.communities = 12;
  cfg.max_swap_trials = 3000;
  cfg.max_consecutive_miss = 1000;
  const CommunityPartitioner partitioner(cfg);
  util::Rng rng(4);
  const auto result = partitioner.partition(g, rng);

  // A random partition of this graph scores near zero.
  Partition random_p(g.player_count());
  util::Rng rrng(5);
  for (auto& c : random_p) c = static_cast<CommunityId>(rrng.uniform_int(0, 11));
  EXPECT_GT(result.final_modularity, modularity(g, random_p, 12) + 0.3);
}

TEST(Partitioner, MissStreakStopsEarly) {
  const SocialGraph g = clique_graph(2, 5);
  PartitionerConfig cfg;
  cfg.communities = 2;
  cfg.max_swap_trials = 100000;
  cfg.max_consecutive_miss = 20;
  const CommunityPartitioner partitioner(cfg);
  util::Rng rng(6);
  const auto result = partitioner.partition(g, rng);
  // Once both cliques are separated, every further swap is a Miss.
  EXPECT_LT(result.swap_trials, 100000);
}

TEST(Partitioner, SingleCommunityDegenerate) {
  util::Rng rng(7);
  const auto g = generate_power_law_graph(50, SocialGraphConfig{}, rng);
  PartitionerConfig cfg;
  cfg.communities = 1;
  const CommunityPartitioner partitioner(cfg);
  const auto result = partitioner.partition(g, rng);
  for (CommunityId c : result.partition) EXPECT_EQ(c, 0);
}

TEST(Partitioner, RejectsBadConfig) {
  PartitionerConfig cfg;
  cfg.communities = 0;
  EXPECT_THROW(CommunityPartitioner{cfg}, cloudfog::ConfigError);
  cfg = PartitionerConfig{};
  cfg.max_consecutive_miss = cfg.max_swap_trials + 1;
  EXPECT_THROW(CommunityPartitioner{cfg}, cloudfog::ConfigError);
}

// Parameterized property: for any community count, the partitioner covers
// every player and yields valid ids.
class PartitionerSweep : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerSweep, ValidPartitionForAnyZ) {
  const int z = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(z) + 100);
  const auto g = generate_power_law_graph(300, SocialGraphConfig{}, rng);
  PartitionerConfig cfg;
  cfg.communities = z;
  cfg.max_swap_trials = 200;
  cfg.max_consecutive_miss = 100;
  const CommunityPartitioner partitioner(cfg);
  const auto result = partitioner.partition(g, rng);
  ASSERT_EQ(result.partition.size(), 300u);
  for (CommunityId c : result.partition) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, z);
  }
  EXPECT_GE(result.final_modularity, result.initial_modularity);
}

INSTANTIATE_TEST_SUITE_P(CommunityCounts, PartitionerSweep,
                         ::testing::Values(2, 5, 10, 25, 50));

}  // namespace
}  // namespace cloudfog::social

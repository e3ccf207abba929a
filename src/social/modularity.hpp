// Newman–Girvan modularity (paper Eq. 13).
//
// For a partition of the friend graph into z communities, build the z×z
// matrix Q whose entry q_ab is the fraction of edges joining communities a
// and b; then Γ = Tr(Q) − ‖Q²‖ = Σ_a (q_aa − p_a²) with p_a = Σ_b q_ab.
// High Γ means friends are concentrated inside communities — exactly what
// the server-assignment strategy optimizes.
//
// With m edges, L_in intra-community edges and K_a the degree sum of
// community a (so p_a = K_a/2m), the scaled modularity
//   Φ = 4m²·Γ = 4m·L_in − Σ_a K_a²
// is an exact integer. ModularityState keeps those integer tallies and
// scores a partitioner swap trial in place, in O(Σ deg of the moved
// nodes), without mutating the partition; only an accepted swap is
// written back.
#pragma once

#include <cstdint>
#include <vector>

#include "social/social_graph.hpp"

namespace cloudfog::social {

using CommunityId = int;
using Partition = std::vector<CommunityId>;  // player -> community

/// Full O(E + z) scaled modularity Φ = 4m²·Γ from scratch (exact).
std::int64_t scaled_modularity(const SocialGraph& graph, const Partition& partition,
                               int community_count);

/// Full O(E + z) modularity computation from scratch: Φ / 4m² (0 if m = 0).
double modularity(const SocialGraph& graph, const Partition& partition,
                  int community_count);

/// A partition with its integer modularity tallies, and in-place scoring
/// of the §3.4 group swap. score_swap() never touches the partition; commit_swap()
/// writes the last scored swap back.
class ModularityState {
 public:
  ModularityState(const SocialGraph& graph, Partition partition, int community_count);

  const Partition& partition() const { return partition_; }
  int community_count() const { return community_count_; }
  CommunityId community_of(PlayerId p) const { return partition_[p]; }

  /// Current scaled modularity Φ = 4m²·Γ. O(z), exact.
  std::int64_t scaled_modularity() const;

  /// Current modularity Γ = Φ / 4m². O(z).
  double modularity() const;

  /// Scores the swap of p_i + F(p_i) (those in p_i's community) with
  /// p_j + F(p_j) (those in p_j's community) and returns ΔΦ. The net move
  /// sets equal applying the two group moves one after the other: friends
  /// of p_j in p_i's community that the first move would carry over are
  /// carried back by the second, so they stay. Returns 0 with nothing to
  /// commit when p_i and p_j share a community. The partition is untouched.
  std::int64_t score_swap(PlayerId pi, PlayerId pj);

  /// Applies the swap last scored by score_swap(). O(moved nodes).
  void commit_swap();

  /// Number of players in a community.
  std::size_t community_size(CommunityId c) const;

 private:
  const SocialGraph& graph_;
  Partition partition_;
  int community_count_;
  std::int64_t edges_;                    ///< m
  std::vector<std::int64_t> degree_sum_;  ///< K_a
  std::int64_t intra_edges_ = 0;          ///< L_in
  std::vector<std::size_t> sizes_;

  // Scratch of the last scored swap, reused across trials: a node is in
  // the trial's move sets iff stamp_[p] == epoch_, and then ends in
  // target_[p] (equal to its current community when it nets out).
  std::vector<std::uint64_t> stamp_;
  std::vector<CommunityId> target_;
  std::vector<PlayerId> moved_;
  std::uint64_t epoch_ = 0;
  bool pending_ = false;
  CommunityId from_ = 0;           ///< c_i
  CommunityId to_ = 0;             ///< c_j
  std::int64_t degree_shift_ = 0;  ///< d = deg(T) − deg(S)
  std::int64_t intra_shift2_ = 0;  ///< 2·ΔL_in
};

}  // namespace cloudfog::social

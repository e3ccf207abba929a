// Per-player private reputation store (paper §3.2.1, Eq. 7).
//
// Every player keeps its *own* ratings of the supernodes that served it and
// never aggregates opinions from other players — this is the paper's
// defence against sybil attacks and rating collusion: an attacker's forged
// identities can only pollute their own private views, never the victim's.
//
// A supernode's score for a player is the age-weighted average of that
// player's ratings:
//   s_ij = Σ_k r_k · λ^{d_k} / Σ_k λ^{d_k},   0 < λ < 1,
// where d_k is the age in days of the k-th rating. A supernode the player
// has never interacted with scores 0 — unknown supernodes rank below any
// that have performed, however poorly rated, matching the paper's
// "reputation scores of supernodes that have no previous interactions
// equal 0".
//
// Storage is one flat vector of ratings grouped by supernode (ascending),
// each group in insertion order — a few dozen entries per player, so a
// binary search plus a short scan beats hashing, and score() sums in the
// same order the ratings were given. Recording a rating is pure state:
// the caller reports it to observability.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cloudfog::reputation {

using SupernodeId = std::size_t;

class ReputationStore {
 public:
  /// `aging_factor` is λ ∈ (0,1); `max_ratings_per_supernode` bounds the
  /// retained history (oldest evicted first; N_r in the paper).
  explicit ReputationStore(double aging_factor = 0.9,
                           std::size_t max_ratings_per_supernode = 64);

  double aging_factor() const { return aging_factor_; }

  /// Records a rating of `sn` on `day` with value in [0,1] (§3.2.1: the
  /// playback continuity the player experienced).
  void add_rating(SupernodeId sn, double value, int day);

  /// s_ij as of `current_day`. 0 for unknown supernodes.
  double score(SupernodeId sn, int current_day) const;

  /// Number of retained ratings for `sn`.
  std::size_t rating_count(SupernodeId sn) const;

  /// Erases every rating of `sn`: the supernode identity disappeared and
  /// a fresh one took its place (whitewashing — §3.2.1's defence is that
  /// the reborn identity scores 0 like any unknown, losing whatever good
  /// standing the old identity had accumulated).
  void forget(SupernodeId sn);

  /// Supernodes with at least one rating, ascending.
  std::vector<SupernodeId> rated_supernodes() const;

 private:
  struct Rating {
    double value = 0.0;    ///< in [0,1]
    std::uint32_t sn = 0;  ///< rated supernode
    int day = 1;           ///< 1-based day the rating was issued
  };
  using Iter = std::vector<Rating>::const_iterator;

  /// [first, last) of `sn`'s group.
  std::pair<Iter, Iter> group(SupernodeId sn) const;

  double aging_factor_;
  std::size_t max_ratings_;
  std::vector<Rating> ratings_;  ///< grouped by sn, insertion order within
};

}  // namespace cloudfog::reputation

#include "social/modularity.hpp"

#include <utility>

#include "util/require.hpp"

namespace cloudfog::social {

namespace {

void require_valid(const SocialGraph& graph, const Partition& partition, int community_count) {
  CLOUDFOG_REQUIRE(partition.size() == graph.player_count(), "partition size mismatch");
  CLOUDFOG_REQUIRE(community_count > 0, "need at least one community");
  for (CommunityId c : partition) {
    CLOUDFOG_REQUIRE(c >= 0 && c < community_count, "community id out of range");
  }
}

/// Per-community degree sums K_a and the intra-community edge count L_in.
struct Tallies {
  std::vector<std::int64_t> degree_sum;
  std::int64_t intra_edges = 0;
};

Tallies count_edges(const SocialGraph& graph, const Partition& partition,
                    int community_count) {
  Tallies t{std::vector<std::int64_t>(static_cast<std::size_t>(community_count), 0), 0};
  for (PlayerId p = 0; p < graph.player_count(); ++p) {
    const CommunityId cp = partition[p];
    t.degree_sum[static_cast<std::size_t>(cp)] += static_cast<std::int64_t>(graph.degree(p));
    for (PlayerId f : graph.friends(p)) {
      if (p < f && partition[f] == cp) ++t.intra_edges;
    }
  }
  return t;
}

/// Φ = 4m·L_in − Σ_a K_a².
std::int64_t phi_from_tallies(const std::vector<std::int64_t>& degree_sum,
                              std::int64_t intra_edges, std::int64_t edges) {
  std::int64_t phi = 4 * edges * intra_edges;
  for (std::int64_t k : degree_sum) phi -= k * k;
  return phi;
}

/// Γ = Φ / 4m², with Γ = 0 on an edgeless graph.
double gamma_from_phi(std::int64_t phi, std::int64_t edges) {
  if (edges == 0) return 0.0;
  const auto m = static_cast<double>(edges);
  return static_cast<double>(phi) / (4.0 * m * m);
}

}  // namespace

std::int64_t scaled_modularity(const SocialGraph& graph, const Partition& partition,
                               int community_count) {
  require_valid(graph, partition, community_count);
  const Tallies t = count_edges(graph, partition, community_count);
  return phi_from_tallies(t.degree_sum, t.intra_edges,
                          static_cast<std::int64_t>(graph.edge_count()));
}

double modularity(const SocialGraph& graph, const Partition& partition,
                  int community_count) {
  return gamma_from_phi(scaled_modularity(graph, partition, community_count),
                        static_cast<std::int64_t>(graph.edge_count()));
}

ModularityState::ModularityState(const SocialGraph& graph, Partition partition,
                                 int community_count)
    : graph_(graph),
      partition_(std::move(partition)),
      community_count_(community_count),
      edges_(static_cast<std::int64_t>(graph.edge_count())),
      sizes_(static_cast<std::size_t>(community_count), 0),
      stamp_(graph.player_count(), 0),
      target_(graph.player_count(), 0) {
  require_valid(graph_, partition_, community_count_);
  for (CommunityId c : partition_) ++sizes_[static_cast<std::size_t>(c)];
  Tallies t = count_edges(graph_, partition_, community_count_);
  degree_sum_ = std::move(t.degree_sum);
  intra_edges_ = t.intra_edges;
}

std::int64_t ModularityState::scaled_modularity() const {
  return phi_from_tallies(degree_sum_, intra_edges_, edges_);
}

double ModularityState::modularity() const {
  return gamma_from_phi(scaled_modularity(), edges_);
}

std::int64_t ModularityState::score_swap(PlayerId pi, PlayerId pj) {
  CLOUDFOG_REQUIRE(pi < partition_.size() && pj < partition_.size(), "player id out of range");
  pending_ = false;
  const CommunityId ci = partition_[pi];
  const CommunityId cj = partition_[pj];
  if (ci == cj) return 0;

  ++epoch_;
  moved_.clear();
  std::int64_t d = 0;
  auto stage = [&](PlayerId p, CommunityId to) {
    stamp_[p] = epoch_;
    target_[p] = to;
  };
  // T = ({p_j} ∪ F(p_j)) ∩ c_j moves to c_i. F(p_j) ∩ c_i is pinned: the
  // p_i group move would carry it to c_j and the p_j group move back.
  auto stage_j = [&](PlayerId p) {
    const CommunityId c = partition_[p];
    if (c == cj) {
      stage(p, ci);
      moved_.push_back(p);
      d += static_cast<std::int64_t>(graph_.degree(p));
    } else if (c == ci) {
      stage(p, ci);
    }
  };
  // S = ({p_i} ∪ F(p_i)) ∩ c_i, minus the pinned nodes, moves to c_j.
  auto stage_i = [&](PlayerId p) {
    if (partition_[p] == ci && stamp_[p] != epoch_) {
      stage(p, cj);
      moved_.push_back(p);
      d -= static_cast<std::int64_t>(graph_.degree(p));
    }
  };
  stage_j(pj);
  for (PlayerId f : graph_.friends(pj)) stage_j(f);
  stage_i(pi);
  for (PlayerId f : graph_.friends(pi)) stage_i(f);

  // 2·ΔL_in: an edge between two moved nodes is seen from both ends, an
  // edge to an unmoved node only from its moved end, so it counts twice.
  std::int64_t intra_shift2 = 0;
  for (PlayerId u : moved_) {
    const CommunityId old_u = partition_[u];
    const CommunityId new_u = target_[u];
    for (PlayerId v : graph_.friends(u)) {
      const CommunityId old_v = partition_[v];
      const bool v_moves = stamp_[v] == epoch_ && target_[v] != old_v;
      const CommunityId new_v = v_moves ? target_[v] : old_v;
      const int change = static_cast<int>(new_u == new_v) - static_cast<int>(old_u == old_v);
      intra_shift2 += v_moves ? change : 2 * change;
    }
  }

  // K_ci → K_ci + d and K_cj → K_cj − d, so Σ K_a² grows by
  // 2d(K_ci − K_cj) + 2d².
  const std::int64_t k_diff =
      degree_sum_[static_cast<std::size_t>(ci)] - degree_sum_[static_cast<std::size_t>(cj)];
  from_ = ci;
  to_ = cj;
  degree_shift_ = d;
  intra_shift2_ = intra_shift2;
  pending_ = true;
  return 2 * edges_ * intra_shift2 - 2 * d * k_diff - 2 * d * d;
}

void ModularityState::commit_swap() {
  CLOUDFOG_REQUIRE(pending_, "no scored swap to commit");
  for (PlayerId p : moved_) {
    --sizes_[static_cast<std::size_t>(partition_[p])];
    partition_[p] = target_[p];
    ++sizes_[static_cast<std::size_t>(target_[p])];
  }
  degree_sum_[static_cast<std::size_t>(from_)] += degree_shift_;
  degree_sum_[static_cast<std::size_t>(to_)] -= degree_shift_;
  intra_edges_ += intra_shift2_ / 2;
  pending_ = false;
}

std::size_t ModularityState::community_size(CommunityId c) const {
  CLOUDFOG_REQUIRE(c >= 0 && c < community_count_, "community id out of range");
  return sizes_[static_cast<std::size_t>(c)];
}

}  // namespace cloudfog::social

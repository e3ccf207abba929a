// The cloud: datacenters plus the supernode registry (paper §3.2.1).
//
// The cloud "stores the information of supernodes in the system in a table
// including their IP addresses and available capacities. When a newly
// joined node requests a supernode, the cloud returns a number of
// supernodes that have available capacities and are physically close to
// the player" — closeness judged by IP geolocation, which is deliberately
// noisy here (see net::IpLocator), so the player's own RTT probing still
// has work to do.
//
// Candidate discovery runs on a geo-grid spatial index by default
// (SupernodeIndex, DESIGN.md §10.1); the exact-equivalent linear scan is
// kept only as the reference the equality tests compare against. The
// index keeps the table's "available capacities" column as accepting
// counts, so every path that can flip a node's accepting() —
// a seat claim or release, a crash or its clear, a provisioning deploy —
// reports the node through note_seat_change.
//
// The join path asks through candidate_supernodes_for, which first walks
// the player's own list of its nearest registered supernodes
// (PlayerState::nearby, built here on the player's first query after each
// index rebuild) and falls back to the grid only when that list cannot
// prove the answer. Players and geolocations never move during a run, so
// most joins never touch the grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/entities.hpp"
#include "core/supernode_index.hpp"
#include "net/ip_locator.hpp"
#include "net/latency_model.hpp"

namespace cloudfog::core {

/// Which engine answers candidate lookups. kGrid and kLinear return
/// identical results; kLinear is the reference scan that the grid/linear
/// equality tests compare against, and nothing else selects it.
enum class CandidateMode { kGrid, kLinear };

class Cloud {
 public:
  Cloud(std::vector<DatacenterState> datacenters, const net::LatencyModel& latency,
        net::IpLocator locator);

  std::size_t datacenter_count() const { return datacenters_.size(); }
  DatacenterState& datacenter(std::size_t i);
  const DatacenterState& datacenter(std::size_t i) const;
  std::vector<DatacenterState>& datacenters() { return datacenters_; }

  /// Index of the datacenter with the lowest RTT to `who` — where the
  /// player's game state lives and where direct streaming comes from.
  /// One RTT per datacenter; callers ask once per endpoint and keep it.
  std::size_t nearest_datacenter(const net::Endpoint& who) const;

  /// Registers a supernode in the table (geolocating its IP).
  void register_supernode(SupernodeState& sn, util::Rng& rng);

  /// §3.2.1 candidate lookup: among supernodes that are deployed, alive
  /// and have spare capacity, the `count` closest to the player by
  /// geolocated distance. Fills `out` (cleared first) with supernode
  /// indices into `fleet`; callers own the scratch buffer. Asks the grid
  /// directly, for callers that hold only an endpoint (the join path uses
  /// candidate_supernodes_for).
  void candidate_supernodes_into(const net::Endpoint& player,
                                 const std::vector<SupernodeState>& fleet, std::size_t count,
                                 std::vector<std::size_t>& out) const;

  /// Fleets above this size bypass the nearby lists (16-bit indices).
  static constexpr std::size_t kMaxNearbyFleet = std::numeric_limits<std::uint16_t>::max();

  /// The join path's lookup: exactly candidate_supernodes_into's answer
  /// for `player.info.endpoint`. Walks `player.nearby` (rebuilt on the
  /// player's first query after each index rebuild) filtered by the
  /// accepting bytes, and asks the grid only when the list cannot prove
  /// the answer. kLinear and fleets above kMaxNearbyFleet go straight to
  /// candidate_supernodes_into. A PlayerState is queried through one Cloud.
  void candidate_supernodes_for(PlayerState& player, const std::vector<SupernodeState>& fleet,
                                std::size_t count, std::vector<std::size_t>& out) const;

  /// Reference implementation: full linear scan, ordered by
  /// (distance, index). Element-for-element identical to the grid path.
  void candidate_supernodes_linear(const net::Endpoint& player,
                                   const std::vector<SupernodeState>& fleet, std::size_t count,
                                   std::vector<std::size_t>& out) const;

  /// Seat-change hook: re-reads `fleet[i].accepting()` into the index's
  /// accepting counts. Idempotent, O(1), and a no-op while the index is
  /// built for another fleet or registry epoch (the next query rebuilds
  /// it from the fleet anyway). Must follow every change to a node's
  /// deployed / failed / served state once queries have begun.
  void note_seat_change(const std::vector<SupernodeState>& fleet, std::size_t i) const;

  /// Invariant check for tests: false iff the index is built for `fleet`
  /// and its accepting bytes, per-cell counts or accepting set differ
  /// from a recount of `accepting()` — a seat change that bypassed
  /// note_seat_change. Rebuilds nothing.
  bool seat_index_consistent(const std::vector<SupernodeState>& fleet) const;

  CandidateMode candidate_mode() const { return mode_; }
  void set_candidate_mode(CandidateMode mode) { mode_ = mode; }

  const net::IpLocator& locator() const { return locator_; }
  const net::LatencyModel& latency() const { return latency_; }

 private:
  /// Lazily (re)builds the spatial index when the fleet identity or the
  /// registration epoch changed since the last build.
  void ensure_index(const std::vector<SupernodeState>& fleet) const;
  /// True when the index was built for this fleet vector at this epoch.
  bool indexed_for(const std::vector<SupernodeState>& fleet) const;

  std::vector<DatacenterState> datacenters_;
  const net::LatencyModel& latency_;
  net::IpLocator locator_;

  CandidateMode mode_ = CandidateMode::kGrid;
  /// Bumped on every (un)registration — geolocations may have changed.
  std::uint64_t registry_epoch_ = 1;
  mutable SupernodeIndex index_;
  mutable const SupernodeState* indexed_fleet_ = nullptr;
  mutable std::size_t indexed_size_ = 0;
  mutable std::uint64_t indexed_epoch_ = 0;
  /// Counts index rebuilds; a nearby list is valid only for the build it
  /// was made for (NearbySupernodes::build, 0 = none).
  mutable std::uint64_t index_builds_ = 0;
  /// Linear-scan scratch, reused across calls (single-threaded contract).
  mutable std::vector<std::pair<double, std::size_t>> linear_scratch_;
};

}  // namespace cloudfog::core

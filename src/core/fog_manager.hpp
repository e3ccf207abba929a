// Fog management: supernode selection, player/supernode churn handling
// (paper §3.2).
//
// Selection protocol for a joining player:
//   1. ask the cloud for the `candidate_count` geographically closest
//      supernodes with spare capacity;
//   2. probe RTT to each; drop candidates above the game's threshold
//      L_max (the game's latency requirement);
//   3. order the survivors by this player's private reputation score
//      (descending) — or randomly when the reputation strategy is off;
//   4. sequentially ask each for capacity; connect to the first that still
//      has room (capacity may vanish between lookup and claim);
//   5. if none accepts, fall back to direct cloud streaming.
//
// The manager also estimates the wall-clock cost of each operation as the
// sum of the message round-trips it performs — these are the Fig. 9 join
// and migration latencies.
#pragma once

#include <cstddef>
#include <vector>

#include "core/cloud.hpp"
#include "core/entities.hpp"
#include "fault/fault_state.hpp"
#include "fault/retry_policy.hpp"
#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace cloudfog::core {

struct FogManagerConfig {
  std::size_t candidate_count = 8;
  /// L_max: a probed supernode is kept only if its one-way transmission
  /// delay to the player is within the game's latency requirement times
  /// this fraction — a supernode that alone eats the whole budget cannot
  /// possibly stream in time (§3.2.1).
  double lmax_fraction_of_requirement = 1.0;
  /// Failure detection (§3.2.2 "normal nodes probe their supernodes
  /// periodically"): attempt_timeout_ms is the probe period, max_attempts
  /// the miss limit; detection_ms() — 500 ms by default — is the time a
  /// disconnected player takes to declare its supernode dead.
  fault::RetryPolicy detection = fault::RetryPolicy::liveness(250.0, 2);
  /// Selection/claim budget: each sequential capacity claim is one
  /// attempt, attempt_timeout_ms is what an unanswered probe costs (the
  /// probe of a blackholed or partitioned node never returns), and
  /// deadline_budget_ms caps the whole search — exhaustion degrades the
  /// session to direct cloud streaming. Defaults are unbounded, which
  /// reproduces the pre-fault-layer behaviour exactly.
  fault::RetryPolicy selection{.max_attempts = 0, .attempt_timeout_ms = 400.0};
  /// Fixed handshake cost of establishing a streaming session (ms).
  double connect_setup_ms = 50.0;
};

struct SelectionOutcome {
  ServingRef serving;          ///< supernode or cloud fallback
  double join_latency_ms = 0;  ///< simulated protocol time
  int probes = 0;              ///< RTT probes issued
  int capacity_asks = 0;       ///< sequential capacity claims attempted
  /// True when the selection deadline budget ran out before a supernode
  /// accepted — the caller should treat the cloud attach as a degraded
  /// fallback (hysteresis applies before returning to fog).
  bool budget_exhausted = false;
};

class FogManager {
 public:
  /// Reports probes, claims and fallbacks into `rec`.
  FogManager(FogManagerConfig cfg, const Cloud& cloud, const net::LatencyModel& latency,
             obs::Recorder& rec);

  const FogManagerConfig& config() const { return cfg_; }

  /// Attaches the live fault projection (nullptr detaches). While any
  /// fault is active, probes honour blackholes and partitions.
  void set_fault_state(const fault::FaultState* faults) { faults_ = faults; }

  /// Runs the full §3.2.1 protocol for `player`. Mutates the chosen
  /// supernode's load and the player's serving ref + candidate cache.
  /// `reputation_enabled` toggles step 3; `current_day` ages ratings.
  SelectionOutcome select_supernode(PlayerState& player,
                                    std::vector<SupernodeState>& fleet,
                                    const game::GameCatalog& catalog, int current_day,
                                    bool reputation_enabled, util::Rng& rng) const;

  /// §3.2.2 migration: the serving supernode failed. Tries the cached
  /// candidate list first, then the full protocol. Returns the outcome
  /// with latency including failure detection.
  SelectionOutcome migrate(PlayerState& player, std::vector<SupernodeState>& fleet,
                           const game::GameCatalog& catalog, int current_day,
                           bool reputation_enabled, util::Rng& rng) const;

  /// Detaches a player from its current serving entity (frees the
  /// supernode seat; datacenter/CDN tallies are engine-recomputed).
  void release(PlayerState& player, std::vector<SupernodeState>& fleet) const;

  /// Simulated time for a new supernode to join the fog: one RTT to the
  /// cloud plus registration processing.
  double supernode_join_latency_ms(const SupernodeState& sn) const;

 private:
  /// Steps 2–5 over an explicit candidate list; shared by select/migrate.
  /// Claims draw on `budget` (may be null for an unbounded search).
  SelectionOutcome try_candidates(PlayerState& player, std::vector<SupernodeState>& fleet,
                                  const std::vector<std::size_t>& candidates,
                                  double lmax_ms, int current_day, bool reputation_enabled,
                                  util::Rng& rng, fault::RetryBudget* budget) const;

  /// Full protocol threading one shared budget (used by migrate so the
  /// cached-candidate pass and the full retry drain the same deadline).
  SelectionOutcome select_with_budget(PlayerState& player,
                                      std::vector<SupernodeState>& fleet,
                                      const game::GameCatalog& catalog, int current_day,
                                      bool reputation_enabled, util::Rng& rng,
                                      fault::RetryBudget& budget) const;

  /// player.nearest_dc_cache, computed on first use (endpoints and the
  /// datacenter set are immutable).
  std::size_t nearest_dc(PlayerState& player) const;

  FogManagerConfig cfg_;
  const Cloud& cloud_;
  const net::LatencyModel& latency_;
  obs::Recorder& rec_;
  const fault::FaultState* faults_ = nullptr;
  /// Probe-qualification scratch, reused across selections (the manager's
  /// callers are single-threaded; try_candidates never nests).
  struct Probed {
    std::size_t index = 0;
    double rtt_ms = 0.0;
    double score = 0.0;
  };
  mutable std::vector<Probed> qualified_;
};

}  // namespace cloudfog::core

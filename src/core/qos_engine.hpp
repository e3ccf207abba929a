// Per-subcycle QoS evaluation.
//
// Given the current player→entity assignments, the engine advances every
// streaming session through `substeps` adaptation intervals. Each interval
// it (1) tallies the video bitrate demanded from every serving entity,
// (2) derives each stream's sustainable throughput — the minimum of the
// RTT-limited WAN rate, the player's downlink, and a proportional share of
// the entity's uplink — and the congestion state of the entity, and
// (3) feeds the resulting path observation to the session, which updates
// its rate adapter and continuity. When no session can switch its bitrate,
// the intervals are independent across sessions and each session runs
// all of them back to back (DESIGN.md §10.2). Response latency is
// assembled per architecture:
//
//   Cloud direct : playout + state + x-server + dc→p           + transfer
//   CloudFog     : playout + state + x-server + render + sn→p  + transfer
//   CDN/EdgeCloud: playout + state + coop     + render + cdn→p + transfer
//
// (Upstream action and cloud→supernode update messages are small and fast
// and are excluded per the paper's §3.1 observation that uploading "does
// not seriously affect the response latency".)
//
// where `transfer` is the frame transmission time inflated by the queueing
// factor u/(1−u) of the entity's uplink, and jitter (which drives the
// continuity probability) inflates linearly with utilization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cloud.hpp"
#include "core/entities.hpp"
#include "fault/fault_state.hpp"
#include "game/game_catalog.hpp"
#include "net/latency_model.hpp"
#include "obs/recorder.hpp"
#include "video/qoe.hpp"

namespace cloudfog::core {

struct QosEngineConfig {
  double playout_processing_ms = 20.0;  ///< client playout + cloud processing
  double state_compute_ms = 5.0;        ///< game-state computation time
  double render_ms = 3.0;               ///< video rendering at supernode/CDN
  /// EdgeCloud inter-server state sync: one wide-area round trip between
  /// the edge servers hosting two interacting players (~45 ms for
  /// metro-to-metro distances on this plane).
  double cdn_cooperation_ms = 45.0;
  double update_feed_kbps = 200.0;      ///< Λ — cloud→supernode update stream
  double burst_headroom = 1.5;          ///< sender may run ahead of realtime
  double max_queue_factor = 4.0;        ///< cap on u/(1−u) inflation
  double jitter_inflation = 2.0;        ///< jitter multiplier at u = 1
  double base_jitter_ms = 6.0;          ///< uncongested per-packet jitter mean
  /// Jitter grows with path length (more queues to cross): the mean gains
  /// this fraction of the path RTT.
  double path_jitter_fraction = 0.08;
  int substeps = 6;                     ///< adaptation intervals per subcycle
  double substep_seconds = 2.0;         ///< adapter estimation interval
  /// Path-term & observation memoization (exact caches, DESIGN.md §10).
  /// false = reference mode: recompute everything every substep — kept
  /// only as what the memo equality tests compare against. Both modes
  /// produce byte-identical results.
  bool memoize = true;
};

/// Aggregate results of one subcycle (averaged over substeps & sessions).
struct SubcycleQos {
  double avg_response_latency_ms = 0.0;
  double avg_server_latency_ms = 0.0;  ///< the inter-server component alone
  double avg_continuity = 1.0;
  double satisfied_fraction = 1.0;  ///< players with subcycle continuity ≥ 95 %
  double avg_mos = 5.0;             ///< mean opinion score (QoE extension)
  double cloud_egress_mbps = 0.0;   ///< DC video streams + supernode update feeds
  std::size_t online_sessions = 0;
  std::size_t fog_served = 0;
  std::size_t cloud_served = 0;
  std::size_t cdn_served = 0;
};

class QosEngine {
 public:
  /// Reports subcycle/adaptation time and rate switches into `rec`.
  QosEngine(QosEngineConfig cfg, const net::LatencyModel& latency, obs::Recorder& rec);

  const QosEngineConfig& config() const { return cfg_; }

  /// Attaches the live fault projection (nullptr detaches). Active slow
  /// nodes, partitions and update-channel impairments then degrade the
  /// fog-served paths.
  void set_fault_state(const fault::FaultState* faults) { faults_ = faults; }

  /// Advances one subcycle. Mutates sessions (adaptation, continuity) and
  /// the demand tallies on entities.
  SubcycleQos run_subcycle(std::vector<PlayerState>& players,
                           std::vector<SupernodeState>& fleet, Cloud& cloud,
                           std::vector<CdnServerState>& cdn) const;

 private:
  struct EntityLoad {
    double offered_mbps = 0.0;
    double demanded_kbps = 0.0;

    double utilization() const;
    double queue_factor(double cap) const;
    /// Proportional share of the uplink for a stream of `bitrate_kbps`.
    double share_kbps(double bitrate_kbps) const;
  };

  /// Per-session sums over the subcycle's substeps (one sample each).
  struct Acc {
    double latency_sum = 0.0;
    double continuity_sum = 0.0;
    double bitrate_sum = 0.0;
  };

  /// Tier-1 memo: pure (player endpoint, serving endpoint) quantities.
  /// Valid while the serving ref and both endpoints are bit-unchanged —
  /// endpoints are immutable, so this invalidates exactly on migration /
  /// serving change.
  struct PathTerms {
    ServingRef ref{};
    net::Endpoint player_ep{};
    net::Endpoint entity_ep{};
    double one_way_ms = 0.0;  ///< entity → player (order used by video/base terms)
    double rtt_ms = 0.0;      ///< player ↔ entity
    double wan_kbps = 0.0;    ///< RTT-limited WAN throughput (kbps)
    bool valid = false;
  };

  /// Tier-2 memo: the full path observation, valid while every input that
  /// feeds the transfer/jitter/continuity arithmetic is bit-unchanged.
  /// Values are compared exactly, so a hit reproduces the recomputation
  /// bit for bit.
  struct ObsMemo {
    game::GameId game = 0;
    double bitrate = -1.0;
    double offered_mbps = -1.0;
    double demanded_kbps = -1.0;
    double cross_server_ms = -1.0;
    double sabotage_ms = -1.0;
    double fault_response_ms = -1.0;
    double fault_video_ms = -1.0;
    double fault_loss = -1.0;
    video::PathObservation path{};
    double continuity = 0.0;
    bool valid = false;
  };

  struct PlayerMemo {
    PathTerms terms;
    ObsMemo obs;
  };

  /// One visit to a session: `ahead` consecutive substeps. The first
  /// computes the path (through the memo tiers); the rest replay its
  /// observation, which is exact only while no bitrate in the subcycle can
  /// change (`ahead > 1` requires the session to hold its rate). Each
  /// substep's sample is added into `acc`.
  void evaluate_player(PlayerState& player, PlayerMemo& memo, Acc& acc, int ahead,
                       const std::vector<SupernodeState>& fleet, const Cloud& cloud,
                       const std::vector<CdnServerState>& cdn) const;

  const net::Endpoint& serving_endpoint(const ServingRef& ref,
                                        const std::vector<SupernodeState>& fleet,
                                        const Cloud& cloud,
                                        const std::vector<CdnServerState>& cdn) const;

  QosEngineConfig cfg_;
  const net::LatencyModel& latency_;
  obs::Recorder& rec_;
  video::QoeModel qoe_;
  const fault::FaultState* faults_ = nullptr;

  // Subcycle scratch + memo state, reused across calls (run_subcycle is
  // not reentrant).
  mutable std::vector<Acc> acc_;  ///< indexed by work slot
  mutable std::vector<std::uint32_t> work_;
  /// Cross-server term of each non-CDN work-list session, in work order.
  mutable std::vector<double> server_ms_;
  /// Next visit's demand per supernode / datacenter / CDN server.
  mutable std::vector<double> next_sn_kbps_;
  mutable std::vector<double> next_dc_kbps_;
  mutable std::vector<double> next_cdn_kbps_;
  mutable std::vector<PlayerMemo> memo_;
  mutable const PlayerState* memo_players_ = nullptr;
};

}  // namespace cloudfog::core

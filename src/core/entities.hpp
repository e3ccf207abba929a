// Runtime entities of a gaming system: players, supernodes, datacenters
// and CDN servers, plus the serving relationship between them. These are
// plain state holders; behaviour lives in Cloud / FogManager / QosEngine.
// A player's nearby-supernode list (NearbySupernodes) is kept inline, so
// 10k players add no heap blocks for it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "game/activity_model.hpp"
#include "game/game_catalog.hpp"
#include "net/bandwidth_model.hpp"
#include "net/ip_locator.hpp"
#include "net/latency_model.hpp"
#include "reputation/reputation_store.hpp"
#include "video/stream_session.hpp"

namespace cloudfog::core {

using NodeId = std::size_t;

/// Which kind of entity streams a player's game video.
enum class ServingKind { kNone, kCloud, kSupernode, kCdn };

struct ServingRef {
  ServingKind kind = ServingKind::kNone;
  std::size_t index = 0;  ///< datacenter / supernode / CDN-server index

  bool attached() const { return kind != ServingKind::kNone; }
  friend bool operator==(const ServingRef&, const ServingRef&) = default;
};

/// Immutable facts about a player, fixed at testbed construction.
struct PlayerInfo {
  NodeId id = 0;
  net::Endpoint endpoint;
  net::NodeBandwidth bandwidth;
  game::DurationClass duration_class = game::DurationClass::kCasual;
  bool supernode_capable = false;
  net::IpAddress ip = 0;
};

/// The registered supernodes nearest a player by geolocated distance,
/// accepting or not, in (distance, fleet index) order: the list that
/// Cloud::candidate_supernodes_for filters to answer §3.2.1 step 1. Valid
/// only for the cloud's index build it was made for. 16 entries answer
/// most joins on their own (DESIGN.md §10.1); 48 bytes per player.
struct NearbySupernodes {
  static constexpr std::size_t kCapacity = 16;
  std::array<std::uint16_t, kCapacity> nodes{};
  std::uint8_t size = 0;    ///< entries in use: min(kCapacity, fleet size)
  std::uint64_t build = 0;  ///< index build the list was made for; 0 = none
};

/// Mutable per-player simulation state.
struct PlayerState {
  PlayerInfo info;
  game::DailySession today;          ///< rolled at the start of each cycle
  game::GameId game = 0;             ///< game chosen for today
  bool online = false;
  ServingRef serving;
  std::size_t state_dc = 0;          ///< datacenter holding this player's game state
  std::size_t server_index = 0;      ///< game server inside the datacenter
  /// Expected extra response latency from inter-server communication this
  /// subcycle (computed by the system from interaction patterns, §3.4).
  double cross_server_ms = 0.0;
  std::optional<video::StreamSession> session;
  reputation::ReputationStore reputation;  ///< this player's private ratings
  std::vector<std::size_t> candidate_supernodes;  ///< cached cloud answer
  NearbySupernodes nearby;  ///< discovery's per-player list (Cloud-owned)
  /// Memoized Cloud::nearest_datacenter answer for this player's endpoint
  /// (immutable after testbed construction); -1 until first computed.
  std::int64_t nearest_dc_cache = -1;
  /// Continuity experienced this cycle toward the supernode that served
  /// it, for end-of-cycle rating (§4.1).
  double cycle_continuity_sum = 0.0;
  double cycle_continuity_samples = 0.0;
  /// Supernode to rate at the end of the cycle (last one that served us).
  std::optional<std::size_t> rated_supernode_this_cycle;
};

/// A deployed supernode (fog member).
struct SupernodeState {
  std::size_t id = 0;
  NodeId owner_player = 0;  ///< the contributing machine's player index
  net::Endpoint endpoint;
  net::IpAddress ip = 0;
  double upload_mbps = 0.0;
  int capacity = 0;  ///< max simultaneous players (hardware/rendering bound)
  /// Fraction of the uplink the owner actually offers this cycle
  /// (§4.1's throttling supernodes set 0.8 / 0.5). Throttling is
  /// *silent*: the cloud's capacity table still advertises the full seat
  /// count — detecting the resulting poor service is exactly the
  /// reputation system's job (§3.2.1, factor three).
  double willingness = 1.0;
  /// §3.6 extension: a malicious supernode "deliberately delays the
  /// transmission of game videos in order to destroy user satisfaction".
  /// Added to every packet's delivery latency; invisible to the cloud's
  /// tables — only experienced QoS (reputation) can reveal it.
  double sabotage_delay_ms = 0.0;
  bool deployed = true;  ///< provisioning may park a candidate
  bool failed = false;   ///< injected failure (migration experiments)
  int served = 0;
  /// Players supported in the previous provisioning window — N_i of
  /// Eq. 16's rank ordering.
  int supported_last_window = 0;
  /// Per-substep tally of demanded video bitrate (kbps), rebuilt by the
  /// QoS engine.
  double demanded_kbps = 0.0;

  double offered_upload_mbps() const { return upload_mbps * willingness; }
  bool accepting() const { return deployed && !failed && served < capacity; }
};

/// A cloud datacenter: computes game state and (for players out of fog
/// reach) streams video directly.
struct DatacenterState {
  std::size_t id = 0;
  net::Endpoint endpoint;
  double uplink_mbps = 1500;  ///< video-streaming egress capacity
  double demanded_kbps = 0.0;
};

/// An EdgeCloud-style CDN server: computes state *and* streams for its
/// players (the paper's CDN baseline [21]).
struct CdnServerState {
  std::size_t id = 0;
  net::Endpoint endpoint;
  double uplink_mbps = 150.0;
  int capacity = 100;
  int served = 0;
  double demanded_kbps = 0.0;

  bool accepting() const { return served < capacity; }
};

}  // namespace cloudfog::core

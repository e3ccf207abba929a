// Overlay message model.
//
// The join oracle runs the §3.2.1 control conversation — candidate
// lookup, RTT probing, capacity claims — as actual timestamped messages
// over the simulated network, rather than the closed-form latency sums the
// fluid FogManager uses. The two are cross-validated in
// tests/integration/overlay_crossvalidation_test.
#pragma once

#include <cstdint>
#include <string>

namespace cloudfog::oracle {

/// Overlay-wide node address (players, supernodes and datacenters share
/// one address space; see MessageNetwork::register_endpoint).
using Address = std::uint32_t;

inline constexpr Address kNoAddress = 0xffffffff;

enum class MessageKind {
  kCandidateRequest,  ///< player → cloud: "give me nearby supernodes"
  kCandidateReply,    ///< cloud → player: candidate list
  kProbe,             ///< player → supernode: RTT probe
  kProbeReply,        ///< supernode → player
  kCapacityAsk,       ///< player → supernode: sequential seat claim
  kCapacityGrant,     ///< supernode → player
  kCapacityDeny,      ///< supernode → player
  kConnect,           ///< player → supernode: start streaming
  kConnectAck,        ///< supernode → player
  kRegister,          ///< supernode → cloud: join the fog
  kRegisterAck,
};

/// Human-readable kind name (logging, test diagnostics).
std::string to_string(MessageKind kind);

struct Message {
  Address src = kNoAddress;
  Address dst = kNoAddress;
  MessageKind kind = MessageKind::kProbe;
  /// Wire size; control messages are small, so serialization delay is
  /// usually negligible next to propagation.
  double size_bits = 2000.0;
  /// Correlates replies with requests within a protocol session.
  std::uint64_t session = 0;
  /// Small numeric payload (candidate index, deny reason, …).
  std::int64_t payload = 0;
};

}  // namespace cloudfog::oracle

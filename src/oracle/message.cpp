#include "oracle/message.hpp"

namespace cloudfog::oracle {

std::string to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kCandidateRequest: return "CandidateRequest";
    case MessageKind::kCandidateReply: return "CandidateReply";
    case MessageKind::kProbe: return "Probe";
    case MessageKind::kProbeReply: return "ProbeReply";
    case MessageKind::kCapacityAsk: return "CapacityAsk";
    case MessageKind::kCapacityGrant: return "CapacityGrant";
    case MessageKind::kCapacityDeny: return "CapacityDeny";
    case MessageKind::kConnect: return "Connect";
    case MessageKind::kConnectAck: return "ConnectAck";
    case MessageKind::kRegister: return "Register";
    case MessageKind::kRegisterAck: return "RegisterAck";
  }
  return "Unknown";
}

}  // namespace cloudfog::oracle

#include "oracle/agents.hpp"

#include <algorithm>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::oracle {

SupernodeAgent::SupernodeAgent(MessageNetwork& network, const net::Endpoint& where,
                               int capacity)
    : network_(network), capacity_(capacity) {
  CLOUDFOG_REQUIRE(capacity >= 0, "negative capacity");
  address_ = network_.register_endpoint(where, [this](const Message& m) { handle(m); });
}

void SupernodeAgent::fail() {
  alive_ = false;
  network_.set_down(address_, true);
}

void SupernodeAgent::handle(const Message& msg) {
  Message reply;
  reply.src = address_;
  reply.dst = msg.src;
  reply.session = msg.session;
  switch (msg.kind) {
    case MessageKind::kProbe:
      reply.kind = MessageKind::kProbeReply;
      break;
    case MessageKind::kCapacityAsk:
      if (accepting()) {
        ++served_;  // the seat is reserved with the grant
        reply.kind = MessageKind::kCapacityGrant;
      } else {
        reply.kind = MessageKind::kCapacityDeny;
      }
      break;
    case MessageKind::kConnect:
      reply.kind = MessageKind::kConnectAck;
      break;
    default:
      return;  // not addressed to this protocol role
  }
  network_.send(reply);
}

CloudDirectoryAgent::CloudDirectoryAgent(MessageNetwork& network, const net::Endpoint& where,
                                         std::size_t candidate_count,
                                         double geo_error_sigma_km, util::Rng rng)
    : network_(network),
      candidate_count_(candidate_count),
      geo_error_sigma_km_(geo_error_sigma_km),
      rng_(rng) {
  CLOUDFOG_REQUIRE(candidate_count >= 1, "need at least one candidate");
  address_ = network_.register_endpoint(where, [this](const Message& m) { handle(m); });
}

void CloudDirectoryAgent::admit(Address supernode, net::GeoPoint believed_position) {
  table_.push_back(Entry{supernode, believed_position, true});
}

void CloudDirectoryAgent::update_load_estimate(Address supernode, bool accepting) {
  for (auto& entry : table_) {
    if (entry.address == supernode) entry.believed_accepting = accepting;
  }
}

void CloudDirectoryAgent::handle(const Message& msg) {
  switch (msg.kind) {
    case MessageKind::kRegister: {
      // Geolocate the registrant's "IP": its true position plus
      // city-scale error.
      const net::GeoPoint truth = network_.endpoint_of(msg.src).position;
      admit(msg.src,
            net::GeoPoint{truth.x_km + geo_error_sigma_km_ * util::sample_standard_normal(rng_),
                          truth.y_km + geo_error_sigma_km_ * util::sample_standard_normal(rng_)});
      Message ack;
      ack.src = address_;
      ack.dst = msg.src;
      ack.kind = MessageKind::kRegisterAck;
      ack.session = msg.session;
      network_.send(ack);
      break;
    }
    case MessageKind::kCandidateRequest: {
      // k believed-accepting supernodes nearest to the requester.
      const net::GeoPoint player = network_.endpoint_of(msg.src).position;
      std::vector<const Entry*> live;
      for (const auto& entry : table_) {
        if (entry.believed_accepting) live.push_back(&entry);
      }
      const std::size_t take = std::min(candidate_count_, live.size());
      std::partial_sort(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(take),
                        live.end(), [&player](const Entry* a, const Entry* b) {
                          return net::distance_km(player, a->believed_position) <
                                 net::distance_km(player, b->believed_position);
                        });
      // One reply per candidate (payload = candidate address), then a
      // terminating reply with payload −1 marking the end of the list.
      for (std::size_t i = 0; i < take; ++i) {
        Message reply;
        reply.src = address_;
        reply.dst = msg.src;
        reply.kind = MessageKind::kCandidateReply;
        reply.session = msg.session;
        reply.payload = static_cast<std::int64_t>(live[i]->address);
        network_.send(reply);
      }
      Message done;
      done.src = address_;
      done.dst = msg.src;
      done.kind = MessageKind::kCandidateReply;
      done.session = msg.session;
      done.payload = -1;  // end of list
      network_.send(done);
      break;
    }
    default:
      break;
  }
}

}  // namespace cloudfog::oracle

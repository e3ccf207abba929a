// Protocol agents: the passive responders of the §3.2 control plane.
//
//  * SupernodeAgent — owns the seat count of one supernode and answers
//    probes, capacity claims and connects. Seats are reserved at
//    CapacityGrant time, exactly like the fluid FogManager: capacity can
//    vanish between the directory lookup and the claim.
//  * CloudDirectoryAgent — the cloud's supernode table: supernodes
//    register with it; players ask it for the k nearest supernodes with
//    spare capacity. Its view of positions is IP-geolocation-noisy and
//    its view of load is whatever supernodes last reported, so it can be
//    stale — the sequential-ask step exists to absorb that.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/coordinates.hpp"
#include "oracle/network.hpp"

namespace cloudfog::oracle {

class SupernodeAgent {
 public:
  /// Registers the agent on `network` at `where` with `capacity` seats.
  SupernodeAgent(MessageNetwork& network, const net::Endpoint& where, int capacity);

  Address address() const { return address_; }
  int served() const { return served_; }
  bool accepting() const { return alive_ && served_ < capacity_; }

  /// Crash-stop the supernode: messages to it vanish.
  void fail();

 private:
  void handle(const Message& msg);

  MessageNetwork& network_;
  Address address_ = kNoAddress;
  int capacity_;
  int served_ = 0;
  bool alive_ = true;
};

class CloudDirectoryAgent {
 public:
  CloudDirectoryAgent(MessageNetwork& network, const net::Endpoint& where,
                      std::size_t candidate_count = 8, double geo_error_sigma_km = 25.0,
                      util::Rng rng = util::Rng(0xd1c7));

  Address address() const { return address_; }
  std::size_t table_size() const { return table_.size(); }

  /// Directly seeds a table entry (tests); normal entries arrive via
  /// Register messages.
  void admit(Address supernode, net::GeoPoint believed_position);

  /// The directory's (possibly stale) belief about free seats. Updated
  /// from grant/deny gossip is out of scope; we refresh it lazily from
  /// the live agents via this setter.
  void update_load_estimate(Address supernode, bool accepting);

 private:
  void handle(const Message& msg);

  struct Entry {
    Address address;
    net::GeoPoint believed_position;
    bool believed_accepting = true;
  };

  MessageNetwork& network_;
  Address address_ = kNoAddress;
  std::size_t candidate_count_;
  double geo_error_sigma_km_;
  util::Rng rng_;
  std::vector<Entry> table_;
};

}  // namespace cloudfog::oracle

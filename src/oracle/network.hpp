// Simulated message transport for the overlay.
//
// Delivery time = one-way propagation (latency model) + serialization at
// the control-plane rate + optional loss. Handlers run inside the
// discrete-event simulator at the delivery timestamp, so protocol state
// machines experience real ordering and real clock readings.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "net/latency_model.hpp"
#include "oracle/message.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace cloudfog::oracle {

struct NetworkConfig {
  /// Control-plane serialization rate (message bits / this = delay).
  double control_rate_bps = 1e6;
  /// Probability that any single message is silently dropped.
  double loss_probability = 0.0;
};

class MessageNetwork {
 public:
  using Handler = std::function<void(const Message&)>;

  MessageNetwork(sim::Simulator& sim, const net::LatencyModel& latency,
                 NetworkConfig cfg = {}, util::Rng rng = util::Rng(0xfade));

  /// Registers an endpoint and its message handler; returns its address.
  Address register_endpoint(const net::Endpoint& where, Handler handler);

  /// Marks an endpoint dead: messages to it vanish (crash-stop model).
  void set_down(Address addr, bool down);

  /// Sends `msg` (src/dst must be registered). Delivery is scheduled on
  /// the simulator; returns the scheduled delivery time, or a negative
  /// value if the message was lost or the destination is down (the sender
  /// cannot know — timeouts are the only failure detector).
  double send(Message msg);

  const net::Endpoint& endpoint_of(Address addr) const;
  std::size_t dropped_count() const { return dropped_; }

 private:
  struct Registered {
    net::Endpoint where;
    Handler handler;
    bool down = false;
  };

  sim::Simulator& sim_;
  const net::LatencyModel& latency_;
  NetworkConfig cfg_;
  util::Rng rng_;
  std::vector<Registered> endpoints_;
  std::size_t dropped_ = 0;
};

}  // namespace cloudfog::oracle

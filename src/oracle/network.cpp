#include "oracle/network.hpp"

#include "util/require.hpp"

namespace cloudfog::oracle {

MessageNetwork::MessageNetwork(sim::Simulator& sim, const net::LatencyModel& latency,
                               NetworkConfig cfg, util::Rng rng)
    : sim_(sim), latency_(latency), cfg_(cfg), rng_(rng) {
  CLOUDFOG_REQUIRE(cfg.control_rate_bps > 0.0, "control rate must be positive");
  CLOUDFOG_REQUIRE(cfg.loss_probability >= 0.0 && cfg.loss_probability < 1.0,
                   "loss probability out of [0,1)");
}

Address MessageNetwork::register_endpoint(const net::Endpoint& where, Handler handler) {
  CLOUDFOG_REQUIRE(static_cast<bool>(handler), "null message handler");
  endpoints_.push_back(Registered{where, std::move(handler), false});
  return static_cast<Address>(endpoints_.size() - 1);
}

void MessageNetwork::set_down(Address addr, bool down) {
  CLOUDFOG_REQUIRE(addr < endpoints_.size(), "unknown address");
  endpoints_[addr].down = down;
}

const net::Endpoint& MessageNetwork::endpoint_of(Address addr) const {
  CLOUDFOG_REQUIRE(addr < endpoints_.size(), "unknown address");
  return endpoints_[addr].where;
}

double MessageNetwork::send(Message msg) {
  CLOUDFOG_REQUIRE(msg.src < endpoints_.size(), "unknown source address");
  CLOUDFOG_REQUIRE(msg.dst < endpoints_.size(), "unknown destination address");
  if (endpoints_[msg.dst].down || rng_.chance(cfg_.loss_probability)) {
    ++dropped_;
    return -1.0;
  }
  const double delay_s =
      latency_.one_way_ms(endpoints_[msg.src].where, endpoints_[msg.dst].where) / 1000.0 +
      msg.size_bits / cfg_.control_rate_bps;
  const double at = sim_.now() + delay_s;
  sim_.schedule_in(delay_s, [this, msg] {
    // Re-check liveness at delivery time: the destination may have died
    // while the message was in flight.
    if (endpoints_[msg.dst].down) {
      ++dropped_;
      return;
    }
    endpoints_[msg.dst].handler(msg);
  });
  return at;
}

}  // namespace cloudfog::oracle

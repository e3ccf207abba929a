#include "net/latency_model.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cloudfog::net {

LatencyModel::LatencyModel(LatencyModelConfig cfg) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.propagation_ms_per_km > 0.0, "propagation delay must be positive");
  CLOUDFOG_REQUIRE(cfg.route_inflation >= 1.0, "route inflation below 1 is unphysical");
  CLOUDFOG_REQUIRE(cfg.hop_overhead_ms >= 0.0, "hop overhead must be non-negative");
  CLOUDFOG_REQUIRE(cfg.tcp_throughput_mbit_s > 0.0, "tcp constant must be positive");
  CLOUDFOG_REQUIRE(cfg.max_flow_mbps > 0.0, "max flow rate must be positive");
}

double LatencyModel::one_way_ms(const Endpoint& a, const Endpoint& b) const {
  const double km = distance_km(a.position, b.position) * cfg_.route_inflation;
  return a.access_latency_ms + b.access_latency_ms + km * cfg_.propagation_ms_per_km +
         cfg_.hop_overhead_ms;
}

double LatencyModel::rtt_ms(const Endpoint& a, const Endpoint& b) const {
  return 2.0 * one_way_ms(a, b);
}

double LatencyModel::wan_throughput_mbps(double rtt_ms) const {
  CLOUDFOG_REQUIRE(rtt_ms > 0.0, "RTT must be positive");
  const double rtt_s = rtt_ms / 1000.0;
  return std::min(cfg_.max_flow_mbps, cfg_.tcp_throughput_mbit_s / rtt_s);
}

Endpoint make_endpoint(GeoPoint position, const PingTrace& trace, util::Rng& rng) {
  return Endpoint{position, trace.sample_access_latency_ms(rng)};
}

Endpoint make_infrastructure_endpoint(GeoPoint position) { return Endpoint{position, 1.0}; }

}  // namespace cloudfog::net

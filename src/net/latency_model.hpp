// Pairwise latency and wide-area throughput model.
//
// One-way latency between endpoints = both access (last-mile) latencies +
// propagation over the routed path (great-circle distance × per-km delay ×
// route inflation). Per-node access latencies come from the ping trace, so
// the resulting RTT distribution matches the trace the paper sampled from.
//
// The model also exposes a TCP-like sustainable throughput that decays with
// RTT; this is what makes "streaming a game video from a far-away cloud"
// slow in a way that tiny update messages are not — the effect the whole
// CloudFog design exploits.
#pragma once

#include "net/coordinates.hpp"
#include "net/ping_trace.hpp"
#include "util/rng.hpp"

namespace cloudfog::net {

/// A network attachment point: position + last-mile latency.
struct Endpoint {
  GeoPoint position;
  double access_latency_ms = 5.0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

struct LatencyModelConfig {
  /// One-way propagation per km of routed fibre (speed of light in glass
  /// ≈ 0.005 ms/km one-way).
  double propagation_ms_per_km = 0.005;
  /// Routed paths are longer than geodesics (detours, peering, per-hop
  /// queueing folded into an effective distance); calibrated so that a
  /// handful of datacenters reaches ~70 % of players within an 80 ms RTT,
  /// matching the Choy et al. measurement the paper builds on.
  double route_inflation = 3.0;
  /// Fixed per-path overhead (serialization, a few router hops).
  double hop_overhead_ms = 4.0;
  /// Throughput constant: sustainable rate ≈ tcp_constant / RTT(s), the
  /// classic MSS/(RTT·√p) law. With MSS = 1500 B and p ≈ 1.5 % loss —
  /// typical of loaded long-haul consumer paths — this is ≈ 0.12 Mbit·s.
  /// Values in Mbps when RTT is in seconds.
  double tcp_throughput_mbit_s = 0.12;
  /// Upper bound on per-flow WAN throughput regardless of RTT (Mbps).
  double max_flow_mbps = 100.0;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelConfig cfg);

  const LatencyModelConfig& config() const { return cfg_; }

  /// Deterministic one-way latency in ms between two endpoints.
  double one_way_ms(const Endpoint& a, const Endpoint& b) const;

  /// Round-trip time in ms (2 × one-way; the paths are symmetric here).
  double rtt_ms(const Endpoint& a, const Endpoint& b) const;

  /// Sustainable per-flow throughput in Mbps over a path with this RTT
  /// (ms) — the RTT-limited TCP-friendly rate, capped at max_flow_mbps.
  double wan_throughput_mbps(double rtt_ms) const;

 private:
  LatencyModelConfig cfg_;
};

/// Builds an endpoint for a node: position from the geo plane, access
/// latency drawn from the trace.
Endpoint make_endpoint(GeoPoint position, const PingTrace& trace, util::Rng& rng);

/// Endpoint for infrastructure (datacenters, CDN servers): well-connected,
/// ~1 ms access latency.
Endpoint make_infrastructure_endpoint(GeoPoint position);

}  // namespace cloudfog::net

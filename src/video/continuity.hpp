// Playback-continuity metric.
//
// §4.1: "continuity is measured by the proportion of packets arrived
// within the required response latency over all packets in a game video",
// and a player is *satisfied* when that proportion reaches 95 %.
//
// Per-packet delivery time = deterministic response latency + a jitter
// term. Jitter is modelled as exponential with a mean that inflates with
// path congestion, so the on-time probability has the closed form
//   P(on time) = 1 − exp(−(req − lat)/jitter_mean)   for req > lat,
// and 0 otherwise. When the sustainable throughput is below the encoding
// bitrate, only the deliverable fraction of packets can be on time at all,
// multiplying the probability by min(1, throughput/bitrate).
#pragma once

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cloudfog::video {

/// Fraction of players' packets considered "satisfied" (paper §4.3.1).
inline constexpr double kSatisfactionThreshold = 0.95;

/// P(latency + jitter ≤ requirement) with exponential jitter.
inline double on_time_probability(double latency_ms, double requirement_ms,
                                  double jitter_mean_ms) {
  CLOUDFOG_REQUIRE(latency_ms >= 0.0, "negative latency");
  CLOUDFOG_REQUIRE(requirement_ms > 0.0, "requirement must be positive");
  CLOUDFOG_REQUIRE(jitter_mean_ms > 0.0, "jitter mean must be positive");
  const double slack = requirement_ms - latency_ms;
  if (slack <= 0.0) return 0.0;
  return 1.0 - std::exp(-slack / jitter_mean_ms);
}

/// min(1, throughput/bitrate): the deliverable packet fraction.
inline double delivery_ratio(double throughput_kbps, double bitrate_kbps) {
  CLOUDFOG_REQUIRE(throughput_kbps >= 0.0, "negative throughput");
  CLOUDFOG_REQUIRE(bitrate_kbps > 0.0, "bitrate must be positive");
  return std::min(1.0, throughput_kbps / bitrate_kbps);
}

/// Combined per-packet on-time probability for a stream.
inline double packet_continuity(double latency_ms, double requirement_ms,
                                double jitter_mean_ms, double throughput_kbps,
                                double bitrate_kbps) {
  return on_time_probability(latency_ms, requirement_ms, jitter_mean_ms) *
         delivery_ratio(throughput_kbps, bitrate_kbps);
}

/// Accumulates continuity over a session (packet-weighted mean).
class ContinuityMeter {
 public:
  /// Records an interval during which `packets` packets experienced
  /// on-time probability `continuity`.
  void add(double continuity, double packets = 1.0) {
    CLOUDFOG_REQUIRE(continuity >= 0.0 && continuity <= 1.0, "continuity out of [0,1]");
    CLOUDFOG_REQUIRE(packets >= 0.0, "negative packet count");
    weighted_sum_ += continuity * packets;
    packets_ += packets;
  }

  double packets() const { return packets_; }
  /// Packet-weighted average continuity; 1.0 for an empty meter (a player
  /// who received no packets missed none).
  double continuity() const { return packets_ == 0.0 ? 1.0 : weighted_sum_ / packets_; }
  bool satisfied() const { return continuity() >= kSatisfactionThreshold; }

 private:
  double weighted_sum_ = 0.0;
  double packets_ = 0.0;
};

}  // namespace cloudfog::video

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

#include <cstddef>

namespace cloudfog::video {

/// Fraction of players' packets considered "satisfied" (paper §4.3.1).
inline constexpr double kSatisfactionThreshold = 0.95;

/// P(latency + jitter ≤ requirement) with exponential jitter.
double on_time_probability(double latency_ms, double requirement_ms,
                           double jitter_mean_ms);

/// min(1, throughput/bitrate): the deliverable packet fraction.
double delivery_ratio(double throughput_kbps, double bitrate_kbps);

/// Combined per-packet on-time probability for a stream.
double packet_continuity(double latency_ms, double requirement_ms,
                         double jitter_mean_ms, double throughput_kbps,
                         double bitrate_kbps);

/// Accumulates continuity over a session (packet-weighted mean).
class ContinuityMeter {
 public:
  /// Records an interval during which `packets` packets experienced
  /// on-time probability `continuity`.
  void add(double continuity, double packets = 1.0);

  double packets() const { return packets_; }
  /// Packet-weighted average continuity; 1.0 for an empty meter (a player
  /// who received no packets missed none).
  double continuity() const;
  bool satisfied() const { return continuity() >= kSatisfactionThreshold; }

 private:
  double weighted_sum_ = 0.0;
  double packets_ = 0.0;
};

}  // namespace cloudfog::video

// Packet-level video delivery.
//
// The QoS engine uses a closed-form continuity (on-time probability ×
// delivery ratio, src/video/continuity.hpp). This module is the
// first-principles version it abstracts: an encoder emitting a GOP
// structure of I/P frames, packetization at the network MTU, and
// packet-by-packet delivery over a bottlenecked, jittery path. The two
// models are checked against each other in tests/oracle — if the analytic
// shortcut drifts from the packet-level truth, the tests catch it. Only
// tests link it (cloudfog_oracle).
#pragma once

#include <cstddef>

#include "util/rng.hpp"

namespace cloudfog::oracle {

struct EncodedFrame {
  std::size_t index = 0;
  double bits = 0.0;
  bool keyframe = false;
};

struct FrameEncoderConfig {
  double bitrate_kbps = 800.0;
  double fps = 30.0;
  int gop_length = 30;        ///< one keyframe per GOP
  double i_frame_ratio = 4.0; ///< keyframe size relative to a P frame
  double size_jitter = 0.2;   ///< ± relative frame-size noise
};

/// Emits frames whose long-run rate matches the configured bitrate while
/// individual frames vary (I vs P, content-dependent noise).
class FrameEncoder {
 public:
  FrameEncoder(FrameEncoderConfig cfg, util::Rng rng);

  const FrameEncoderConfig& config() const { return cfg_; }

  EncodedFrame next();

  /// Expected bits of the k-th frame in a GOP (no noise) — exposed so the
  /// tests can verify rate conservation.
  double nominal_bits(bool keyframe) const;

 private:
  FrameEncoderConfig cfg_;
  util::Rng rng_;
  std::size_t next_index_ = 0;
};

struct DeliveryPath {
  double base_latency_ms = 20.0;    ///< propagation to the player
  double jitter_mean_ms = 8.0;      ///< exponential per-packet jitter
  double bottleneck_kbps = 2000.0;  ///< serialization rate of the path
  double mtu_bits = 12000.0;        ///< 1500-byte packets
};

struct DeliveryResult {
  std::size_t packets = 0;
  std::size_t on_time = 0;

  double continuity() const {
    return packets == 0 ? 1.0
                        : static_cast<double>(on_time) / static_cast<double>(packets);
  }
};

/// Streams `duration_s` of video from `encoder` over `path` and counts
/// the packets delivered within `requirement_ms`. Packets serialize FIFO
/// through the bottleneck (a queue carries over between frames), then
/// experience propagation plus exponential jitter.
DeliveryResult simulate_delivery(FrameEncoder& encoder, double duration_s,
                                 const DeliveryPath& path, double requirement_ms,
                                 util::Rng& rng);

}  // namespace cloudfog::oracle

#include "oracle/packet_stream.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::oracle {

FrameEncoder::FrameEncoder(FrameEncoderConfig cfg, util::Rng rng) : cfg_(cfg), rng_(rng) {
  CLOUDFOG_REQUIRE(cfg.bitrate_kbps > 0.0, "bitrate must be positive");
  CLOUDFOG_REQUIRE(cfg.fps > 0.0, "fps must be positive");
  CLOUDFOG_REQUIRE(cfg.gop_length >= 1, "GOP must hold at least one frame");
  CLOUDFOG_REQUIRE(cfg.i_frame_ratio >= 1.0, "keyframes cannot be smaller than P frames");
  CLOUDFOG_REQUIRE(cfg.size_jitter >= 0.0 && cfg.size_jitter < 1.0,
                   "size jitter out of [0,1)");
}

double FrameEncoder::nominal_bits(bool keyframe) const {
  // Per GOP: 1 I frame of r·p bits + (g−1) P frames of p bits must sum to
  // g · bitrate/fps  ⇒  p = g·B / (r + g − 1).
  const double per_frame_budget = cfg_.bitrate_kbps * 1000.0 / cfg_.fps;
  const double g = static_cast<double>(cfg_.gop_length);
  const double p = g * per_frame_budget / (cfg_.i_frame_ratio + g - 1.0);
  return keyframe ? cfg_.i_frame_ratio * p : p;
}

EncodedFrame FrameEncoder::next() {
  EncodedFrame frame;
  frame.index = next_index_++;
  frame.keyframe = frame.index % static_cast<std::size_t>(cfg_.gop_length) == 0;
  const double noise =
      cfg_.size_jitter > 0.0 ? 1.0 + rng_.uniform(-cfg_.size_jitter, cfg_.size_jitter) : 1.0;
  frame.bits = nominal_bits(frame.keyframe) * noise;
  return frame;
}

DeliveryResult simulate_delivery(FrameEncoder& encoder, double duration_s,
                                 const DeliveryPath& path, double requirement_ms,
                                 util::Rng& rng) {
  CLOUDFOG_REQUIRE(duration_s > 0.0, "duration must be positive");
  CLOUDFOG_REQUIRE(path.bottleneck_kbps > 0.0, "bottleneck must be positive");
  CLOUDFOG_REQUIRE(path.mtu_bits > 0.0, "MTU must be positive");
  CLOUDFOG_REQUIRE(requirement_ms > 0.0, "requirement must be positive");

  DeliveryResult result;
  const double frame_interval_ms = 1000.0 / encoder.config().fps;
  const auto frames = static_cast<std::size_t>(duration_s * encoder.config().fps);
  // FIFO bottleneck: the time the link becomes free again.
  double link_free_at_ms = 0.0;
  for (std::size_t f = 0; f < frames; ++f) {
    const double emitted_at_ms = static_cast<double>(f) * frame_interval_ms;
    const EncodedFrame frame = encoder.next();
    const auto packets = static_cast<std::size_t>(std::ceil(frame.bits / path.mtu_bits));
    for (std::size_t k = 0; k < packets; ++k) {
      const double bits = std::min(path.mtu_bits, frame.bits - static_cast<double>(k) * path.mtu_bits);
      const double serialize_ms = bits / (path.bottleneck_kbps * 1000.0) * 1000.0;
      const double start_ms = std::max(emitted_at_ms, link_free_at_ms);
      link_free_at_ms = start_ms + serialize_ms;
      const double arrival_ms = link_free_at_ms + path.base_latency_ms +
                                util::sample_exponential(rng, 1.0 / path.jitter_mean_ms);
      ++result.packets;
      if (arrival_ms - emitted_at_ms <= requirement_ms) ++result.on_time;
    }
  }
  return result;
}

}  // namespace cloudfog::oracle

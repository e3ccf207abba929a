#include "video/continuity.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cloudfog::video {

double on_time_probability(double latency_ms, double requirement_ms,
                           double jitter_mean_ms) {
  CLOUDFOG_REQUIRE(latency_ms >= 0.0, "negative latency");
  CLOUDFOG_REQUIRE(requirement_ms > 0.0, "requirement must be positive");
  CLOUDFOG_REQUIRE(jitter_mean_ms > 0.0, "jitter mean must be positive");
  const double slack = requirement_ms - latency_ms;
  if (slack <= 0.0) return 0.0;
  return 1.0 - std::exp(-slack / jitter_mean_ms);
}

double delivery_ratio(double throughput_kbps, double bitrate_kbps) {
  CLOUDFOG_REQUIRE(throughput_kbps >= 0.0, "negative throughput");
  CLOUDFOG_REQUIRE(bitrate_kbps > 0.0, "bitrate must be positive");
  return std::min(1.0, throughput_kbps / bitrate_kbps);
}

double packet_continuity(double latency_ms, double requirement_ms,
                         double jitter_mean_ms, double throughput_kbps,
                         double bitrate_kbps) {
  return on_time_probability(latency_ms, requirement_ms, jitter_mean_ms) *
         delivery_ratio(throughput_kbps, bitrate_kbps);
}

void ContinuityMeter::add(double continuity, double packets) {
  CLOUDFOG_REQUIRE(continuity >= 0.0 && continuity <= 1.0, "continuity out of [0,1]");
  CLOUDFOG_REQUIRE(packets >= 0.0, "negative packet count");
  weighted_sum_ += continuity * packets;
  packets_ += packets;
}

double ContinuityMeter::continuity() const {
  return packets_ == 0.0 ? 1.0 : weighted_sum_ / packets_;
}

}  // namespace cloudfog::video

// Video segment model.
//
// Game video is streamed as fixed-duration segments; a segment's size in
// bits is bitrate × duration (the paper's τ). The playback buffer and the
// adaptation rules (§3.3) are all expressed in segments.
#pragma once

#include "util/require.hpp"

namespace cloudfog::video {

struct SegmentSpec {
  double duration_s = 1.0;     ///< segment playback duration
  double bitrate_kbps = 800.0; ///< encoding bitrate
};

/// Segment size in bits (the paper's τ when used as a divisor of buffered
/// bits).
inline double segment_bits(const SegmentSpec& spec) {
  CLOUDFOG_REQUIRE(spec.duration_s > 0.0, "segment duration must be positive");
  CLOUDFOG_REQUIRE(spec.bitrate_kbps > 0.0, "bitrate must be positive");
  return spec.bitrate_kbps * 1000.0 * spec.duration_s;
}

/// Number of whole+fractional segments represented by `bits` of buffered
/// video at the given spec.
inline double segments_from_bits(double bits, const SegmentSpec& spec) {
  CLOUDFOG_REQUIRE(bits >= 0.0, "negative buffered bits");
  return bits / segment_bits(spec);
}

}  // namespace cloudfog::video

#include "video/playback_buffer.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cloudfog::video {

PlaybackBuffer::PlaybackBuffer(double capacity_bits) : capacity_(capacity_bits) {
  CLOUDFOG_REQUIRE(capacity_bits > 0.0, "buffer capacity must be positive");
}

void PlaybackBuffer::set_capacity(double capacity_bits) {
  CLOUDFOG_REQUIRE(capacity_bits > 0.0, "buffer capacity must be positive");
  capacity_ = capacity_bits;
  bits_ = std::min(bits_, capacity_);
}

}  // namespace cloudfog::video

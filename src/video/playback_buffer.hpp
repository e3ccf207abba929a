// Client-side playback buffer (paper Eq. 8).
//
// The receiver estimates its buffered video as
//   s(t_k) = s(t_{k-1}) + (t_k − t_{k-1}) · (d(t_k) − b_p(t_k))
// where d is the downloading rate and b_p the playback rate, both in
// bits/s. The buffer is clamped to [0, capacity]: playback stalls at 0
// (the deficit is reported for continuity accounting) and the sender
// stops bursting ahead at capacity.
#pragma once

#include "util/require.hpp"

namespace cloudfog::video {

class PlaybackBuffer {
 public:
  /// `capacity_bits` bounds how far ahead the sender may burst.
  explicit PlaybackBuffer(double capacity_bits);

  double buffered_bits() const { return bits_; }
  double capacity_bits() const { return capacity_; }

  struct StepResult {
    double buffered_bits = 0.0;
    /// Bits of playback demand that could not be served this step
    /// (buffer underrun); zero when playback was continuous.
    double starved_bits = 0.0;
    /// Download bits discarded because the buffer was already full.
    double overflow_bits = 0.0;
  };

  /// Advances the buffer by `dt` seconds with downloading rate
  /// `download_bps` and playback rate `playback_bps`.
  StepResult step(double dt, double download_bps, double playback_bps) {
    CLOUDFOG_REQUIRE(dt >= 0.0, "negative time step");
    CLOUDFOG_REQUIRE(download_bps >= 0.0 && playback_bps >= 0.0, "negative rate");
    StepResult result;
    const double in = download_bps * dt;
    const double out = playback_bps * dt;
    double next = bits_ + in - out;
    if (next < 0.0) {
      result.starved_bits = -next;
      next = 0.0;
    }
    if (next > capacity_) {
      result.overflow_bits = next - capacity_;
      next = capacity_;
    }
    bits_ = next;
    result.buffered_bits = bits_;
    return result;
  }

  /// Rewrites the capacity (after a bitrate switch); clamps contents.
  void set_capacity(double capacity_bits);

 private:
  double capacity_;
  double bits_ = 0.0;
};

}  // namespace cloudfog::video

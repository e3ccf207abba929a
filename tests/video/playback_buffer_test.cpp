#include "video/playback_buffer.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::video {
namespace {

TEST(PlaybackBuffer, AccumulatesSurplus) {
  PlaybackBuffer buf(1e6);
  // Eq. 8: s grows by dt * (d − b_p).
  const auto r = buf.step(2.0, /*download=*/800e3, /*playback=*/500e3);
  EXPECT_DOUBLE_EQ(r.buffered_bits, 600e3);
  EXPECT_DOUBLE_EQ(r.starved_bits, 0.0);
  EXPECT_DOUBLE_EQ(r.overflow_bits, 0.0);
}

TEST(PlaybackBuffer, DrainsUnderDeficit) {
  PlaybackBuffer buf(1e6);
  buf.step(1.0, 800e3, 0.0);  // preload 800k
  const auto r = buf.step(1.0, 200e3, 500e3);
  EXPECT_DOUBLE_EQ(r.buffered_bits, 500e3);
}

TEST(PlaybackBuffer, StarvationReported) {
  PlaybackBuffer buf(1e6);
  const auto r = buf.step(1.0, 100e3, 500e3);
  EXPECT_DOUBLE_EQ(r.buffered_bits, 0.0);
  EXPECT_DOUBLE_EQ(r.starved_bits, 400e3);
}

TEST(PlaybackBuffer, OverflowClampsAtCapacity) {
  PlaybackBuffer buf(500e3);
  const auto r = buf.step(1.0, 800e3, 0.0);
  EXPECT_DOUBLE_EQ(r.buffered_bits, 500e3);
  EXPECT_DOUBLE_EQ(r.overflow_bits, 300e3);
}

TEST(PlaybackBuffer, SteadyStateBalanced) {
  PlaybackBuffer buf(1e6);
  buf.step(1.0, 500e3, 0.0);
  for (int i = 0; i < 10; ++i) {
    const auto r = buf.step(1.0, 500e3, 500e3);
    EXPECT_DOUBLE_EQ(r.buffered_bits, 500e3);
    EXPECT_DOUBLE_EQ(r.starved_bits, 0.0);
  }
}

TEST(PlaybackBuffer, SetCapacityClampsContents) {
  PlaybackBuffer buf(1e6);
  buf.step(1.0, 900e3, 0.0);
  buf.set_capacity(400e3);
  EXPECT_DOUBLE_EQ(buf.buffered_bits(), 400e3);
}

TEST(PlaybackBuffer, ZeroDtIsNoop) {
  PlaybackBuffer buf(1e6);
  buf.step(1.0, 300e3, 0.0);
  const auto r = buf.step(0.0, 999e3, 999e3);
  EXPECT_DOUBLE_EQ(r.buffered_bits, 300e3);
}

TEST(PlaybackBuffer, RejectsInvalidInput) {
  EXPECT_THROW(PlaybackBuffer(0.0), cloudfog::ConfigError);
  PlaybackBuffer buf(1e6);
  EXPECT_THROW(buf.step(-1.0, 0.0, 0.0), cloudfog::ConfigError);
  EXPECT_THROW(buf.step(1.0, -1.0, 0.0), cloudfog::ConfigError);
  EXPECT_THROW(buf.set_capacity(0.0), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::video

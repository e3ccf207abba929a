#include "video/stream_session.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::video {
namespace {

const game::GameCatalog& catalog() {
  static const game::GameCatalog instance = game::GameCatalog::paper_default();
  return instance;
}

PathObservation good_path(double bitrate_headroom_kbps = 4000.0) {
  PathObservation path;
  path.response_latency_ms = 60.0;
  path.video_latency_ms = 20.0;
  path.jitter_mean_ms = 8.0;
  path.throughput_kbps = bitrate_headroom_kbps;
  path.interval_s = 2.0;
  return path;
}

TEST(StreamSession, StartsAtDefaultQuality) {
  const StreamSession session(catalog(), 4, RateAdapterConfig{});
  EXPECT_EQ(session.current_quality_level(), 5);
  EXPECT_DOUBLE_EQ(session.current_bitrate_kbps(), 1800.0);
}

TEST(StreamSession, GoodPathYieldsHighContinuity) {
  StreamSession session(catalog(), 4, RateAdapterConfig{});
  for (int i = 0; i < 10; ++i) {
    const QosSample s = session.observe(good_path());
    EXPECT_GT(s.continuity, 0.95);
  }
  EXPECT_TRUE(session.satisfied());
}

TEST(StreamSession, LatePacketsTankContinuity) {
  StreamSession session(catalog(), 0, RateAdapterConfig{});  // 30 ms budget
  PathObservation path = good_path();
  path.video_latency_ms = 50.0;  // over budget
  const QosSample s = session.observe(path);
  EXPECT_DOUBLE_EQ(s.continuity, 0.0);
  EXPECT_FALSE(session.satisfied());
}

TEST(StreamSession, ThroughputDeficitTriggersAdaptation) {
  RateAdapterConfig cfg;
  cfg.consecutive_required = 2;
  StreamSession session(catalog(), 4, cfg);
  PathObservation path = good_path();
  path.throughput_kbps = 600.0;  // well below 1800 kbps
  bool stepped_down = false;
  for (int i = 0; i < 4; ++i) {
    if (session.observe(path).decision == RateDecision::kDown) stepped_down = true;
  }
  EXPECT_TRUE(stepped_down);
  EXPECT_LT(session.current_bitrate_kbps(), 1800.0);
}

TEST(StreamSession, SampleReportsCurrentBitrate) {
  StreamSession session(catalog(), 2, RateAdapterConfig{});
  const QosSample s = session.observe(good_path());
  EXPECT_DOUBLE_EQ(s.bitrate_kbps, 800.0);
}

TEST(StreamSession, LifetimeContinuityAggregates) {
  StreamSession session(catalog(), 4, RateAdapterConfig{});
  PathObservation bad = good_path();
  bad.video_latency_ms = 300.0;
  session.observe(good_path());
  session.observe(bad);
  EXPECT_GT(session.session_continuity(), 0.3);
  EXPECT_LT(session.session_continuity(), 0.7);
}

TEST(StreamSession, RejectsNonPositiveInterval) {
  StreamSession session(catalog(), 1, RateAdapterConfig{});
  PathObservation path = good_path();
  path.interval_s = 0.0;
  EXPECT_THROW(session.observe(path), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::video

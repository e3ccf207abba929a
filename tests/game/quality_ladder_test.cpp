#include "game/quality_ladder.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::game {
namespace {

TEST(QualityLadder, PaperDefaultMatchesTable2) {
  const QualityLadder ladder = QualityLadder::paper_default();
  ASSERT_EQ(ladder.size(), 5u);
  const QualityLevel& top = ladder.at_level(5);
  EXPECT_EQ(top.width, 1280);
  EXPECT_EQ(top.height, 720);
  EXPECT_DOUBLE_EQ(top.bitrate_kbps, 1800.0);
  EXPECT_DOUBLE_EQ(top.latency_requirement_ms, 110.0);
  const QualityLevel& bottom = ladder.at_level(1);
  EXPECT_DOUBLE_EQ(bottom.bitrate_kbps, 300.0);
  EXPECT_DOUBLE_EQ(bottom.latency_requirement_ms, 30.0);
  EXPECT_DOUBLE_EQ(bottom.latency_tolerance, 0.6);
}

TEST(QualityLadder, StepUpDownFollowsFig2) {
  const QualityLadder ladder = QualityLadder::paper_default();
  // Fig. 2: 800 kbps steps up to 1200 kbps and down to 500 kbps.
  EXPECT_DOUBLE_EQ(ladder.step_up(3).bitrate_kbps, 1200.0);
  EXPECT_DOUBLE_EQ(ladder.step_down(3).bitrate_kbps, 500.0);
}

TEST(QualityLadder, StepsClampAtEnds) {
  const QualityLadder ladder = QualityLadder::paper_default();
  EXPECT_EQ(ladder.step_up(5).level, 5);
  EXPECT_EQ(ladder.step_down(1).level, 1);
}

TEST(QualityLadder, AdjustUpFactorIsMaxRelativeStep) {
  const QualityLadder ladder = QualityLadder::paper_default();
  // Steps: 300→500 (0.667), 500→800 (0.6), 800→1200 (0.5), 1200→1800 (0.5).
  EXPECT_NEAR(ladder.adjust_up_factor(), 2.0 / 3.0, 1e-12);
}

TEST(QualityLadder, UnknownLevelThrows) {
  const QualityLadder ladder = QualityLadder::paper_default();
  EXPECT_THROW(ladder.at_level(0), cloudfog::ConfigError);
  EXPECT_THROW(ladder.at_level(6), cloudfog::ConfigError);
}

TEST(QualityLadder, ValidationRejectsNonAscendingBitrates) {
  EXPECT_THROW(QualityLadder({QualityLevel{1, 100, 100, 500.0, 50.0, 0.7},
                              QualityLevel{2, 200, 200, 400.0, 70.0, 0.8}}),
               cloudfog::ConfigError);
}

TEST(QualityLadder, ValidationRejectsBadTolerance) {
  EXPECT_THROW(QualityLadder({QualityLevel{1, 100, 100, 500.0, 50.0, 0.0}}),
               cloudfog::ConfigError);
  EXPECT_THROW(QualityLadder({QualityLevel{1, 100, 100, 500.0, 50.0, 1.5}}),
               cloudfog::ConfigError);
}

TEST(FrameBits, MatchesBitrateOverFps) {
  // 1800 kbps at 30 fps → 60 000 bits per frame.
  EXPECT_DOUBLE_EQ(frame_bits(1800.0), 60000.0);
  EXPECT_DOUBLE_EQ(frame_bits(300.0), 10000.0);
}

}  // namespace
}  // namespace cloudfog::game

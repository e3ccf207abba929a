#include "oracle/packet_stream.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "game/quality_ladder.hpp"
#include "util/require.hpp"
#include "video/continuity.hpp"

namespace cloudfog::oracle {
namespace {

TEST(FrameEncoder, LongRunRateMatchesBitrate) {
  FrameEncoderConfig cfg;
  cfg.bitrate_kbps = 1200.0;
  FrameEncoder encoder(cfg, util::Rng(1));
  double bits = 0.0;
  const int frames = 3000;  // 100 s at 30 fps
  for (int i = 0; i < frames; ++i) bits += encoder.next().bits;
  const double seconds = frames / cfg.fps;
  EXPECT_NEAR(bits / seconds / 1000.0, 1200.0, 30.0);
}

TEST(FrameEncoder, KeyframesAreLargerAndPeriodic) {
  FrameEncoderConfig cfg;
  cfg.size_jitter = 0.0;
  FrameEncoder encoder(cfg, util::Rng(2));
  const EncodedFrame first = encoder.next();
  EXPECT_TRUE(first.keyframe);
  double p_bits = 0.0;
  for (int i = 1; i < cfg.gop_length; ++i) {
    const EncodedFrame f = encoder.next();
    EXPECT_FALSE(f.keyframe);
    p_bits = f.bits;
  }
  EXPECT_TRUE(encoder.next().keyframe);  // next GOP
  EXPECT_NEAR(first.bits, cfg.i_frame_ratio * p_bits, 1e-6);
}

TEST(FrameEncoder, NominalRateConservation) {
  const FrameEncoderConfig cfg;
  const FrameEncoder encoder(cfg, util::Rng(3));
  const double gop_bits = encoder.nominal_bits(true) +
                          (cfg.gop_length - 1) * encoder.nominal_bits(false);
  EXPECT_NEAR(gop_bits, cfg.gop_length * cfg.bitrate_kbps * 1000.0 / cfg.fps, 1e-6);
}

TEST(PacketDelivery, CleanPathDeliversEverythingOnTime) {
  FrameEncoder encoder(FrameEncoderConfig{}, util::Rng(4));
  DeliveryPath path;
  path.base_latency_ms = 10.0;
  path.jitter_mean_ms = 2.0;
  path.bottleneck_kbps = 20000.0;  // wide open
  util::Rng rng(5);
  const auto result = simulate_delivery(encoder, 30.0, path, 110.0, rng);
  EXPECT_GT(result.packets, 100u);
  EXPECT_GT(result.continuity(), 0.99);
}

TEST(PacketDelivery, HopelessPathDeliversNothingOnTime) {
  FrameEncoder encoder(FrameEncoderConfig{}, util::Rng(6));
  DeliveryPath path;
  path.base_latency_ms = 200.0;  // beyond any budget by itself
  util::Rng rng(7);
  const auto result = simulate_delivery(encoder, 10.0, path, 110.0, rng);
  EXPECT_DOUBLE_EQ(result.continuity(), 0.0);
}

TEST(PacketDelivery, PersistentOverloadCollapsesContinuity) {
  // A sender that does NOT adapt its rate into a half-capacity bottleneck
  // builds an unbounded queue: delay diverges and almost nothing arrives
  // on time. This is precisely the failure mode the §3.3 rate adapter
  // exists to prevent (the analytic model's delivery-ratio term instead
  // assumes the sender paces to the available rate).
  FrameEncoderConfig cfg;
  cfg.bitrate_kbps = 1600.0;
  FrameEncoder encoder(cfg, util::Rng(8));
  DeliveryPath path;
  path.base_latency_ms = 10.0;
  path.jitter_mean_ms = 2.0;
  path.bottleneck_kbps = 800.0;  // half the encoding rate
  util::Rng rng(9);
  const auto result = simulate_delivery(encoder, 60.0, path, 110.0, rng);
  EXPECT_LT(result.continuity(), 0.05);
}

TEST(PacketDelivery, AdaptedRateRestoresContinuityUnderTheSameBottleneck) {
  // The counterpart: step the encoder down the Table 2 ladder to a rate
  // the bottleneck can carry and the same path delivers nearly everything
  // on time — the §3.3 mechanism's raison d'être, at packet level.
  FrameEncoderConfig cfg;
  cfg.bitrate_kbps = 500.0;  // two ladder rungs below 1600 kbps
  FrameEncoder encoder(cfg, util::Rng(10));
  DeliveryPath path;
  path.base_latency_ms = 10.0;
  path.jitter_mean_ms = 2.0;
  path.bottleneck_kbps = 800.0;
  util::Rng rng(11);
  const auto result = simulate_delivery(encoder, 60.0, path, 110.0, rng);
  EXPECT_GT(result.continuity(), 0.95);
}

// Property sweep: the analytic continuity formula the QoS engine uses
// must agree with the packet-level simulation across operating points
// where its assumptions hold (uncongested bottleneck: serialization is
// folded into deterministic latency, jitter is the random part).
struct OperatingPoint {
  double bitrate_kbps;
  double latency_ms;
  double jitter_ms;
  double requirement_ms;
};

struct Delivery {
  double packet_level = 0.0;
  double analytic = 0.0;
  /// The analytic value with the keyframe's serialization time added to
  /// the latency: the longest any packet waits for the bottleneck.
  double analytic_after_keyframe = 0.0;
};

/// Streams 120 s at `op` (no frame-size noise) over a 50 Mbps bottleneck.
Delivery deliver(const OperatingPoint& op) {
  FrameEncoderConfig ecfg;
  ecfg.bitrate_kbps = op.bitrate_kbps;
  ecfg.size_jitter = 0.0;  // isolate the path effects
  FrameEncoder encoder(ecfg, util::Rng(10));
  DeliveryPath path;
  path.base_latency_ms = op.latency_ms;
  path.jitter_mean_ms = op.jitter_ms;
  path.bottleneck_kbps = 50000.0;  // serialization negligible
  const double keyframe_ms = encoder.nominal_bits(true) / path.bottleneck_kbps;
  util::Rng rng(11);
  Delivery d;
  d.packet_level = simulate_delivery(encoder, 120.0, path, op.requirement_ms, rng).continuity();
  d.analytic = video::packet_continuity(op.latency_ms, op.requirement_ms, op.jitter_ms,
                                        /*throughput=*/50000.0, op.bitrate_kbps);
  d.analytic_after_keyframe =
      video::packet_continuity(op.latency_ms + keyframe_ms, op.requirement_ms, op.jitter_ms,
                               /*throughput=*/50000.0, op.bitrate_kbps);
  return d;
}

std::string describe(const OperatingPoint& op) {
  std::ostringstream out;
  out << "bitrate=" << op.bitrate_kbps << " lat=" << op.latency_ms << " jitter=" << op.jitter_ms
      << " req=" << op.requirement_ms;
  return out.str();
}

class AnalyticVsPacketLevel : public ::testing::TestWithParam<OperatingPoint> {};

TEST_P(AnalyticVsPacketLevel, ContinuityAgrees) {
  const OperatingPoint op = GetParam();
  const Delivery d = deliver(op);
  EXPECT_NEAR(d.packet_level, d.analytic, 0.05) << describe(op);
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, AnalyticVsPacketLevel,
    ::testing::Values(OperatingPoint{800.0, 20.0, 8.0, 70.0},
                      OperatingPoint{1800.0, 40.0, 12.0, 110.0},
                      OperatingPoint{300.0, 15.0, 6.0, 30.0},
                      OperatingPoint{1200.0, 60.0, 10.0, 90.0},
                      OperatingPoint{500.0, 45.0, 20.0, 50.0},
                      OperatingPoint{800.0, 65.0, 8.0, 70.0}));

// Known deviation (EXPERIMENTS.md): the analytic formula has no
// serialization term, so within this many ms of the requirement the
// packet level trails it, by up to about 0.25 (an 1800 kbps keyframe
// takes 4.4 ms to serialize). Farther out the two agree within 0.05.
constexpr double kNearRequirementMs = 10.0;

/// Seeded operating points over the Table 2 ladder (bitrate and latency
/// requirement drawn independently), latency 5–100 ms, jitter 2–20 ms:
/// those within kNearRequirementMs of the requirement, or the others.
std::vector<OperatingPoint> seeded_points(bool near_requirement) {
  const auto ladder = game::QualityLadder::paper_default();
  util::Rng rng(20240603);
  std::vector<OperatingPoint> out;
  for (int i = 0; i < 96; ++i) {
    OperatingPoint op{};
    op.bitrate_kbps = ladder.at_level(static_cast<int>(rng.uniform_int(1, 5))).bitrate_kbps;
    op.requirement_ms =
        ladder.at_level(static_cast<int>(rng.uniform_int(1, 5))).latency_requirement_ms;
    op.latency_ms = rng.uniform(5.0, 100.0);
    op.jitter_ms = rng.uniform(2.0, 20.0);
    const bool near = std::fabs(op.requirement_ms - op.latency_ms) < kNearRequirementMs;
    if (near == near_requirement) out.push_back(op);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(SeededPoints, AnalyticVsPacketLevel,
                         ::testing::ValuesIn(seeded_points(false)));

// Near the requirement every packet waits between zero and one keyframe's
// serialization time at the bottleneck, so the packet level lies between
// the analytic value at the path latency and at the latency plus that
// time (within the same 0.05 sampling tolerance).
class PacketLevelNearRequirement : public ::testing::TestWithParam<OperatingPoint> {};

TEST_P(PacketLevelNearRequirement, BracketedByKeyframeSerialization) {
  const OperatingPoint op = GetParam();
  const Delivery d = deliver(op);
  EXPECT_LE(d.packet_level, d.analytic + 0.05) << describe(op);
  EXPECT_GE(d.packet_level, d.analytic_after_keyframe - 0.05) << describe(op);
}

INSTANTIATE_TEST_SUITE_P(SeededPoints, PacketLevelNearRequirement,
                         ::testing::ValuesIn(seeded_points(true)));

TEST(PacketDelivery, Validation) {
  FrameEncoder encoder(FrameEncoderConfig{}, util::Rng(12));
  util::Rng rng(13);
  EXPECT_THROW(simulate_delivery(encoder, 0.0, DeliveryPath{}, 100.0, rng),
               cloudfog::ConfigError);
  DeliveryPath bad;
  bad.mtu_bits = 0.0;
  EXPECT_THROW(simulate_delivery(encoder, 1.0, bad, 100.0, rng), cloudfog::ConfigError);
  FrameEncoderConfig cfg;
  cfg.gop_length = 0;
  EXPECT_THROW(FrameEncoder(cfg, util::Rng(1)), cloudfog::ConfigError);
}

}  // namespace
}  // namespace cloudfog::oracle

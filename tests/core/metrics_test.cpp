#include "core/metrics.hpp"

#include <gtest/gtest.h>

namespace cloudfog::core {
namespace {

SubcycleQos sample_qos(double latency, double continuity, std::size_t online = 10) {
  SubcycleQos qos;
  qos.avg_response_latency_ms = latency;
  qos.avg_continuity = continuity;
  qos.satisfied_fraction = continuity >= 0.95 ? 1.0 : 0.0;
  qos.cloud_egress_mbps = 100.0;
  qos.online_sessions = online;
  qos.fog_served = online / 2;
  return qos;
}

TEST(MetricsCollector, WarmupSubcyclesIgnored) {
  MetricsCollector collector;
  collector.record_subcycle(sample_qos(500.0, 0.1), /*warmup=*/true);
  collector.record_subcycle(sample_qos(100.0, 0.9), /*warmup=*/false);
  EXPECT_EQ(collector.recorded_subcycles(), 1u);
  EXPECT_DOUBLE_EQ(collector.metrics().response_latency_ms.mean(), 100.0);
}

TEST(MetricsCollector, AveragesAcrossSubcycles) {
  MetricsCollector collector;
  collector.record_subcycle(sample_qos(100.0, 0.8), false);
  collector.record_subcycle(sample_qos(200.0, 0.6), false);
  EXPECT_DOUBLE_EQ(collector.metrics().response_latency_ms.mean(), 150.0);
  EXPECT_DOUBLE_EQ(collector.metrics().continuity.mean(), 0.7);
}

TEST(MetricsCollector, EmptySubcyclesKeepQosUndefinedButCountEgress) {
  MetricsCollector collector;
  SubcycleQos qos = sample_qos(0.0, 1.0, /*online=*/0);
  qos.cloud_egress_mbps = 5.0;
  collector.record_subcycle(qos, false);
  EXPECT_EQ(collector.metrics().response_latency_ms.count(), 0u);
  EXPECT_EQ(collector.metrics().cloud_egress_mbps.count(), 1u);
}

TEST(MetricsCollector, FogServedFractionComputed) {
  MetricsCollector collector;
  collector.record_subcycle(sample_qos(100.0, 0.9, 10), false);
  EXPECT_DOUBLE_EQ(collector.metrics().fog_served_fraction.mean(), 0.5);
}

TEST(MetricsCollector, EventSamplesRecordedRegardlessOfWarmup) {
  MetricsCollector collector;
  collector.record_player_join(120.0);
  collector.record_supernode_join(80.0);
  collector.record_migration(800.0);
  collector.record_server_assignment(1.5);
  EXPECT_EQ(collector.metrics().player_join_latency_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(collector.metrics().supernode_join_latency_ms.mean(), 80.0);
  EXPECT_DOUBLE_EQ(collector.metrics().migration_latency_ms.mean(), 800.0);
  EXPECT_DOUBLE_EQ(collector.metrics().server_assignment_seconds.mean(), 1.5);
}

}  // namespace
}  // namespace cloudfog::core

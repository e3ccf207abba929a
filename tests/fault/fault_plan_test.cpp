#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace cloudfog::fault {
namespace {

FaultPlanConfig chaos_config(std::uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.enabled = true;
  cfg.horizon_s = 100.0 * 3600.0;
  cfg.faults_per_hour = 2.0;
  cfg.supernode_count = 40;
  cfg.region_count = 5;
  cfg.seed = seed;
  return cfg;
}

bool specs_equal(const FaultSpec& a, const FaultSpec& b) {
  return a.kind == b.kind && a.at_s == b.at_s && a.duration_s == b.duration_s &&
         a.target == b.target && a.target_b == b.target_b && a.magnitude == b.magnitude;
}

TEST(FaultPlan, SameSeedSamePlanBitForBit) {
  const FaultPlan a = FaultPlan::generate(chaos_config(99));
  const FaultPlan b = FaultPlan::generate(chaos_config(99));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(specs_equal(a.specs()[i], b.specs()[i])) << "spec " << i << " differs";
  }
}

TEST(FaultPlan, DifferentSeedDifferentPlan) {
  const FaultPlan a = FaultPlan::generate(chaos_config(99));
  const FaultPlan b = FaultPlan::generate(chaos_config(100));
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !specs_equal(a.specs()[i], b.specs()[i]);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, ArrivalRateIsApproximatelyHonoured) {
  // 2 faults/hour over 100 hours: Poisson(200), std ≈ 14.
  const FaultPlan plan = FaultPlan::generate(chaos_config(7));
  EXPECT_NEAR(static_cast<double>(plan.size()), 200.0, 60.0);
}

TEST(FaultPlan, SpecsAreSortedWithinHorizonAndWellFormed) {
  const auto cfg = chaos_config(13);
  const FaultPlan plan = FaultPlan::generate(cfg);
  ASSERT_FALSE(plan.empty());
  double last = -1.0;
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_GE(spec.at_s, last);
    last = spec.at_s;
    EXPECT_GE(spec.at_s, 0.0);
    EXPECT_LE(spec.at_s, cfg.horizon_s);
    EXPECT_GE(spec.duration_s, 60.0);  // clamped floor
    if (spec.kind == FaultKind::kNetworkPartition) {
      ASSERT_LT(spec.target, cfg.region_count);
      ASSERT_LT(spec.target_b, cfg.region_count);
      EXPECT_NE(spec.target, spec.target_b);
    } else if (spec.kind != FaultKind::kSupernodeCrash) {
      // Generated node faults name concrete victims; crashes may wildcard.
      if (spec.kind == FaultKind::kSlowNode || spec.kind == FaultKind::kProbeBlackhole) {
        ASSERT_LT(spec.target, cfg.supernode_count);
      }
    }
  }
}

TEST(FaultPlan, MixWeightsSelectKinds) {
  auto cfg = chaos_config(21);
  cfg.mix = FaultMix{};
  cfg.mix.slow_node = 0.0;
  cfg.mix.partition = 0.0;
  cfg.mix.loss_burst = 0.0;
  cfg.mix.delay_burst = 0.0;
  cfg.mix.blackhole = 0.0;  // crash-only schedule
  const FaultPlan plan = FaultPlan::generate(cfg);
  ASSERT_FALSE(plan.empty());
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_EQ(spec.kind, FaultKind::kSupernodeCrash);
  }
}

TEST(FaultPlan, ExtraSpecsAreMergedInTimeOrder) {
  auto cfg = chaos_config(33);
  FaultSpec hand;
  hand.kind = FaultKind::kSlowNode;
  hand.at_s = 12.5;
  hand.duration_s = 100.0;
  hand.target = 3;
  hand.magnitude = 55.0;
  cfg.extra_specs.push_back(hand);
  const FaultPlan plan = FaultPlan::generate(cfg);
  bool found = false;
  double last = -1.0;
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_GE(spec.at_s, last);
    last = spec.at_s;
    found = found || specs_equal(spec, hand);
  }
  EXPECT_TRUE(found);
}

TEST(FaultPlan, ZeroRatePlanIsItsExtraSpecsInStableTimeOrder) {
  FaultPlanConfig cfg;
  for (double at_s : {30.0, 10.0, 30.0, 20.0}) {
    FaultSpec spec;
    spec.at_s = at_s;
    spec.target = cfg.extra_specs.size();
    cfg.extra_specs.push_back(spec);
  }
  const FaultPlan plan = FaultPlan::generate(cfg);
  ASSERT_EQ(plan.size(), 4u);
  // By time; the two specs at 30 s keep their listed order.
  const std::vector<std::size_t> targets{1, 3, 0, 2};
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(plan.specs()[i].target, targets[i]) << i;
  }
}

TEST(FaultPlan, ZeroRateEmptyHorizonYieldsEmptyPlan) {
  FaultPlanConfig cfg;
  cfg.enabled = true;
  EXPECT_TRUE(FaultPlan::generate(cfg).empty());
}

TEST(FaultSeed, EnvOverrideWins) {
  ASSERT_EQ(setenv("CLOUDFOG_FAULT_SEED", "424242", 1), 0);
  EXPECT_EQ(fault_seed_from_env(7), 424242u);
  ASSERT_EQ(unsetenv("CLOUDFOG_FAULT_SEED"), 0);
  EXPECT_EQ(fault_seed_from_env(7), 7u);
}

}  // namespace
}  // namespace cloudfog::fault

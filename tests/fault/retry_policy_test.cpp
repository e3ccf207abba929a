#include "fault/retry_policy.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::fault {
namespace {

TEST(RetryPolicy, FactoriesMatchTheLegacyTimeouts) {
  // These constants are load-bearing: the defaults of the join oracle and
  // fog configs map 1:1 onto the pre-fault-layer timeout behaviour.
  const RetryPolicy probe = RetryPolicy::liveness();
  EXPECT_DOUBLE_EQ(probe.attempt_timeout_ms, 250.0);
  EXPECT_EQ(probe.max_attempts, 2);
  EXPECT_DOUBLE_EQ(probe.detection_ms(), 500.0);

  const RetryPolicy stage = RetryPolicy::single_attempt(1000.0);
  EXPECT_EQ(stage.max_attempts, 1);
  EXPECT_DOUBLE_EQ(stage.attempt_timeout_ms, 1000.0);
  EXPECT_FALSE(stage.unbounded_attempts());
}

TEST(RetryPolicy, BackoffIsExponentialAndClamped) {
  RetryPolicy p;
  p.base_backoff_ms = 100.0;
  p.backoff_multiplier = 2.0;
  p.max_backoff_ms = 400.0;
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(p.backoff_before_attempt(1, rng), 0.0);
  EXPECT_DOUBLE_EQ(p.backoff_before_attempt(2, rng), 100.0);
  EXPECT_DOUBLE_EQ(p.backoff_before_attempt(3, rng), 200.0);
  EXPECT_DOUBLE_EQ(p.backoff_before_attempt(4, rng), 400.0);
  EXPECT_DOUBLE_EQ(p.backoff_before_attempt(5, rng), 400.0);  // clamped
}

TEST(RetryPolicy, ZeroJitterConsumesNoRandomness) {
  RetryPolicy p;
  p.base_backoff_ms = 100.0;
  util::Rng a(7);
  util::Rng b(7);
  (void)p.backoff_before_attempt(3, a);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // streams still in lockstep
}

TEST(RetryPolicy, JitterStaysWithinTheFraction) {
  RetryPolicy p;
  p.base_backoff_ms = 100.0;
  p.jitter_fraction = 0.5;
  util::Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double wait = p.backoff_before_attempt(2, rng);
    EXPECT_GE(wait, 50.0);
    EXPECT_LE(wait, 150.0);
  }
}

TEST(RetryPolicy, ValidateRejectsNonsense) {
  RetryPolicy p;
  p.attempt_timeout_ms = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RetryPolicy{};
  p.max_attempts = -1;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RetryPolicy{};
  p.jitter_fraction = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
  p = RetryPolicy{};
  p.max_backoff_ms = 1.0;
  p.base_backoff_ms = 2.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(RetryBudget, AttemptsRunOut) {
  RetryPolicy p;
  p.max_attempts = 3;
  obs::Recorder rec;
  RetryBudget budget(p, rec, "test");
  util::Rng rng(3);
  EXPECT_TRUE(budget.next_attempt(rng));
  EXPECT_TRUE(budget.next_attempt(rng));
  EXPECT_TRUE(budget.next_attempt(rng));
  EXPECT_FALSE(budget.next_attempt(rng));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.attempts_started(), 3);
  // Exhaustion is sticky.
  EXPECT_FALSE(budget.can_attempt());
  EXPECT_FALSE(budget.next_attempt(rng));
}

TEST(RetryBudget, DeadlineBudgetStopsFurtherAttempts) {
  RetryPolicy p;
  p.max_attempts = 0;  // unbounded attempts — only the deadline limits
  p.deadline_budget_ms = 1000.0;
  obs::Recorder rec;
  RetryBudget budget(p, rec, "test");
  util::Rng rng(4);
  EXPECT_TRUE(budget.next_attempt(rng));
  budget.charge_ms(999.0);
  EXPECT_DOUBLE_EQ(budget.remaining_budget_ms(), 1.0);
  EXPECT_TRUE(budget.next_attempt(rng));  // 999 < 1000: still inside
  budget.charge_ms(2.0);
  EXPECT_FALSE(budget.next_attempt(rng));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_DOUBLE_EQ(budget.remaining_budget_ms(), 0.0);
}

TEST(RetryBudget, BackoffWaitsChargeTheDeadline) {
  RetryPolicy p;
  p.max_attempts = 0;
  p.base_backoff_ms = 300.0;
  p.deadline_budget_ms = 500.0;
  obs::Recorder rec;
  RetryBudget budget(p, rec, "test");
  util::Rng rng(5);
  double backoff = -1.0;
  ASSERT_TRUE(budget.next_attempt(rng, &backoff));
  EXPECT_DOUBLE_EQ(backoff, 0.0);  // first attempt never waits
  ASSERT_TRUE(budget.next_attempt(rng, &backoff));
  EXPECT_DOUBLE_EQ(backoff, 300.0);
  EXPECT_DOUBLE_EQ(budget.elapsed_ms(), 300.0);
  // Attempt 3 is still permitted (300 < 500) and its 600 ms backoff is
  // charged; afterwards the deadline is spent.
  ASSERT_TRUE(budget.next_attempt(rng, &backoff));
  EXPECT_DOUBLE_EQ(backoff, 600.0);
  EXPECT_FALSE(budget.next_attempt(rng));
}

TEST(RetryBudget, UnboundedPolicyWithInfiniteDeadlineNeverExhausts) {
  RetryPolicy p;
  p.max_attempts = 0;  // the pre-PR FogManager claim loop
  obs::Recorder rec;
  RetryBudget budget(p, rec, "test");
  util::Rng rng(6);
  for (int i = 0; i < 10000; ++i) ASSERT_TRUE(budget.next_attempt(rng));
  EXPECT_FALSE(budget.exhausted());
}

}  // namespace
}  // namespace cloudfog::fault

#include "fault/retry_policy.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::fault {

namespace {

/// Interned metric handles shared by every RetryBudget.
struct RetryObs {
  obs::CounterId attempts;
  obs::CounterId retries;
  obs::CounterId exhaustions;
  explicit RetryObs(obs::Registry& reg) {
    attempts = reg.counter("fault.attempts");
    retries = reg.counter("fault.retries");
    exhaustions = reg.counter("fault.exhaustions");
  }
};

const RetryObs& retry_obs(obs::Recorder& rec) {
  static const RetryObs handles(rec.registry());
  return handles;
}

}  // namespace

RetryPolicy RetryPolicy::single_attempt(double timeout_ms) {
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.attempt_timeout_ms = timeout_ms;
  return policy;
}

RetryPolicy RetryPolicy::liveness(double period_ms, int miss_limit) {
  RetryPolicy policy;
  policy.max_attempts = miss_limit;
  policy.attempt_timeout_ms = period_ms;
  return policy;
}

double RetryPolicy::backoff_before_attempt(int attempt, util::Rng& rng) const {
  CLOUDFOG_REQUIRE(attempt >= 1, "attempts are 1-based");
  if (attempt == 1 || base_backoff_ms <= 0.0) return 0.0;
  double wait = base_backoff_ms * std::pow(backoff_multiplier, attempt - 2);
  wait = std::min(wait, max_backoff_ms);
  if (jitter_fraction > 0.0) {
    wait *= rng.uniform(1.0 - jitter_fraction, 1.0 + jitter_fraction);
    wait = std::max(wait, 0.0);
  }
  return wait;
}

void RetryPolicy::validate() const {
  CLOUDFOG_REQUIRE(max_attempts >= 0, "max_attempts must be >= 0 (0 = unlimited)");
  CLOUDFOG_REQUIRE(attempt_timeout_ms > 0.0, "attempt timeout must be positive");
  CLOUDFOG_REQUIRE(base_backoff_ms >= 0.0, "base backoff must be non-negative");
  CLOUDFOG_REQUIRE(backoff_multiplier >= 1.0, "backoff multiplier must be >= 1");
  CLOUDFOG_REQUIRE(max_backoff_ms >= base_backoff_ms,
                   "max backoff must cover the base backoff");
  CLOUDFOG_REQUIRE(jitter_fraction >= 0.0 && jitter_fraction <= 1.0,
                   "jitter fraction must be within [0, 1]");
  CLOUDFOG_REQUIRE(deadline_budget_ms > 0.0, "deadline budget must be positive");
}

RetryBudget::RetryBudget(const RetryPolicy& policy, obs::Recorder& rec, std::string_view site)
    : policy_(policy), rec_(rec), site_(site) {
  policy_.validate();
}

obs::NoteId RetryBudget::site_note() {
  if (site_note_.index == 0 && !site_.empty()) site_note_ = obs::intern_note(site_);
  return site_note_;
}

bool RetryBudget::can_attempt() const {
  if (exhausted_) return false;
  if (!policy_.unbounded_attempts() && attempts_ >= policy_.max_attempts) return false;
  return elapsed_ms_ < policy_.deadline_budget_ms;
}

bool RetryBudget::next_attempt(util::Rng& rng, double* backoff_ms) {
  if (!can_attempt()) {
    if (!exhausted_) {
      exhausted_ = true;
      if (rec_.enabled()) {
        rec_.registry().add(retry_obs(rec_).exhaustions);
        rec_.trace(obs::EventKind::kRetryExhausted, attempts_, -1, elapsed_ms_,
                   site_note());
      }
    }
    return false;
  }
  ++attempts_;
  const double wait = policy_.backoff_before_attempt(attempts_, rng);
  elapsed_ms_ += wait;
  if (backoff_ms != nullptr) *backoff_ms = wait;
  if (rec_.enabled()) {
    rec_.registry().add(retry_obs(rec_).attempts);
    if (attempts_ >= 2) {
      rec_.registry().add(retry_obs(rec_).retries);
      rec_.trace(obs::EventKind::kRetryAttempt, attempts_, -1, wait, site_note());
    }
  }
  return true;
}

void RetryBudget::charge_ms(double elapsed_ms) {
  CLOUDFOG_REQUIRE(elapsed_ms >= 0.0, "cannot charge negative time");
  elapsed_ms_ += elapsed_ms;
}

double RetryBudget::remaining_budget_ms() const {
  return std::max(0.0, policy_.deadline_budget_ms - elapsed_ms_);
}

}  // namespace cloudfog::fault

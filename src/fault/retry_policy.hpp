// Unified retry/backoff policy.
//
// Before this layer existed, every protocol that waited on an unreliable
// peer hand-rolled its own timeout logic: the join conversation had a flat
// per-stage timeout, liveness probing a period × miss-limit pair,
// FogManager a fixed detection charge and an unbounded claim loop.
// RetryPolicy is the one vocabulary for all of them: how many attempts,
// how long each may take, how the wait between attempts grows (exponential
// backoff with optional jitter from util::Rng), and a hard deadline budget
// the whole operation must fit into.
//
// RetryBudget tracks one operation's consumption of a policy — attempts
// started and simulated milliseconds spent — and emits the shared obs
// counters (attempts / retries / exhaustions) plus a trace event into the
// owner's recorder when a retry fires or a budget runs dry, so chaos runs
// show exactly where recovery time went.
#pragma once

#include <limits>
#include <string_view>

#include "obs/recorder.hpp"
#include "util/rng.hpp"

namespace cloudfog::fault {

struct RetryPolicy {
  /// Attempts allowed before the operation gives up; 0 = unbounded (the
  /// operation is limited only by its own work list and the deadline).
  int max_attempts = 3;
  /// How long one attempt may wait for an answer (ms). Doubles as the
  /// liveness probe period of RetryPolicy::liveness().
  double attempt_timeout_ms = 1000.0;
  /// Backoff before the second attempt (ms); 0 = retry immediately.
  double base_backoff_ms = 0.0;
  /// Growth factor of the backoff between consecutive attempts.
  double backoff_multiplier = 2.0;
  /// Ceiling on any single backoff wait (ms).
  double max_backoff_ms = 5000.0;
  /// Uniform jitter applied to a nonzero backoff: the wait is scaled by a
  /// factor drawn from [1 - jitter_fraction, 1 + jitter_fraction].
  double jitter_fraction = 0.0;
  /// Hard ceiling on the operation's total simulated time (timeouts,
  /// round-trips and backoffs included). Infinite by default.
  double deadline_budget_ms = std::numeric_limits<double>::infinity();

  /// One try, no backoff — the pre-fault-layer behaviour of JoinSession.
  static RetryPolicy single_attempt(double timeout_ms);

  /// §3.2.2 liveness probing: `miss_limit` silent periods of `period_ms`.
  static RetryPolicy liveness(double period_ms = 250.0, int miss_limit = 2);

  /// Worst-case failure-detection time: every allowed attempt times out.
  double detection_ms() const { return attempt_timeout_ms * max_attempts; }

  bool unbounded_attempts() const { return max_attempts <= 0; }

  /// Backoff wait before `attempt` (1-based; always 0 for the first).
  /// Consumes `rng` only when the wait is nonzero and jittered.
  double backoff_before_attempt(int attempt, util::Rng& rng) const;

  /// Throws ConfigError on non-sensical fields.
  void validate() const;
};

/// Consumption tracker for one operation under a RetryPolicy, reporting
/// into `rec`. `site` names the call-site in obs output ("fog.claim",
/// "join.candidates", ...).
class RetryBudget {
 public:
  RetryBudget(const RetryPolicy& policy, obs::Recorder& rec, std::string_view site = {});

  /// True while another attempt is permitted (attempts and deadline).
  bool can_attempt() const;

  /// Starts the next attempt. Returns false — and records the exhaustion —
  /// when the policy forbids it. On success `*backoff_ms` (if given)
  /// receives the wait to serve before the attempt, already charged to the
  /// deadline budget.
  bool next_attempt(util::Rng& rng, double* backoff_ms = nullptr);

  /// Charges simulated time spent inside an attempt (round-trips,
  /// timeouts) against the deadline budget.
  void charge_ms(double elapsed_ms);

  int attempts_started() const { return attempts_; }
  double elapsed_ms() const { return elapsed_ms_; }
  double remaining_budget_ms() const;
  bool exhausted() const { return exhausted_; }

 private:
  /// `site_` interned on first traced event, then cached — budgets that
  /// never emit (the common case) skip the note-table lookup entirely.
  obs::NoteId site_note();

  RetryPolicy policy_;
  obs::Recorder& rec_;
  std::string_view site_;
  obs::NoteId site_note_{};
  int attempts_ = 0;
  double elapsed_ms_ = 0.0;
  bool exhausted_ = false;
};

}  // namespace cloudfog::fault

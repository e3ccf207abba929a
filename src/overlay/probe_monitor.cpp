#include "overlay/probe_monitor.hpp"

#include <cstdint>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::overlay {

ProbeMonitor::ProbeMonitor(sim::Simulator& sim, MessageNetwork& network, Address self,
                           Address target, ProbeMonitorConfig cfg,
                           FailureCallback on_failure, obs::Recorder& rec)
    : sim_(sim),
      network_(network),
      self_(self),
      target_(target),
      cfg_(cfg),
      on_failure_(std::move(on_failure)),
      rec_(rec),
      backoff_rng_(util::hash64("probe_backoff") ^ (static_cast<std::uint64_t>(self) << 20),
                   target) {
  cfg_.policy.validate();
  CLOUDFOG_REQUIRE(cfg_.policy.max_attempts >= 1,
                   "liveness policy needs a bounded miss limit");
  CLOUDFOG_REQUIRE(static_cast<bool>(on_failure_), "null failure callback");
  tick();
}

ProbeMonitor::~ProbeMonitor() { stop(); }

void ProbeMonitor::stop() {
  running_ = false;
  ++epoch_;
}

void ProbeMonitor::on_message(const Message& msg) {
  if (!running_) return;
  if (msg.kind == MessageKind::kLivenessReply && msg.src == target_) {
    awaiting_reply_ = false;
    misses_ = 0;
    streak_.reset();
  }
}

void ProbeMonitor::tick() {
  if (!running_) return;
  double backoff_ms = 0.0;
  if (awaiting_reply_) {
    // The previous probe went unanswered for a full period.
    ++misses_;
    if (!streak_) {
      streak_.emplace(cfg_.policy, rec_, "overlay.liveness");
      // The probe that opened the streak was the first attempt.
      streak_->next_attempt(backoff_rng_);
    }
    if (!streak_->next_attempt(backoff_rng_, &backoff_ms)) {
      // The policy's attempts are spent: declare the supernode dead.
      running_ = false;
      if (rec_.enabled()) {
        static const obs::CounterId failures =
            rec_.registry().counter("overlay.liveness_failures");
        rec_.registry().add(failures);
        static const obs::NoteId kLivenessTimeout = obs::intern_note("liveness_timeout");
        rec_.trace_at(sim_.now(), obs::EventKind::kSupernodeChurn,
                      static_cast<std::int64_t>(target_), static_cast<std::int64_t>(self_),
                      static_cast<double>(misses_), kLivenessTimeout);
      }
      // The callback may destroy this monitor (typical: the player stops
      // watching and rejoins); keep the callable alive on the stack.
      const auto on_failure = std::move(on_failure_);
      const double now_ms = sim_.now() * 1000.0;
      on_failure(now_ms);
      return;
    }
  }
  Message probe;
  probe.src = self_;
  probe.dst = target_;
  probe.kind = MessageKind::kLivenessProbe;
  network_.send(probe);
  awaiting_reply_ = true;
  if (rec_.enabled()) {
    static const obs::CounterId liveness = rec_.registry().counter("overlay.liveness_probes");
    rec_.registry().add(liveness);
  }

  const int epoch = epoch_;
  const std::weak_ptr<int> alive = alive_;
  // A jittered/backed-off policy stretches the wait before the next miss
  // is counted; the default liveness policy keeps the flat probe period.
  sim_.schedule_in((cfg_.policy.attempt_timeout_ms + backoff_ms) / 1000.0,
                   [this, epoch, alive] {
                     if (!alive.expired() && epoch == epoch_) tick();
                   });
}

}  // namespace cloudfog::overlay

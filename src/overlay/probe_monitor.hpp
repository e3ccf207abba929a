// Liveness monitoring of a serving supernode (§3.2.2: "normal nodes probe
// their supernodes periodically for connection maintenance").
//
// Every period the monitor sends a LivenessProbe; a reply arriving before
// the next tick resets the miss counter. The timing is a fault::RetryPolicy
// — attempt_timeout_ms is the probe period, max_attempts the miss limit —
// so detection time is the policy's detection_ms() and a miss streak is an
// ordinary retry sequence (optionally backed off) with the shared
// fault.retries / fault.exhaustions accounting. After the policy's
// attempts run out the supernode is declared dead and the failure callback
// fires (once) with the detection timestamp — the first component of the
// paper's ~0.8 s migration latency.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "fault/retry_policy.hpp"
#include "obs/recorder.hpp"
#include "overlay/network.hpp"
#include "sim/simulator.hpp"

namespace cloudfog::overlay {

struct ProbeMonitorConfig {
  /// attempt_timeout_ms = probe period, max_attempts = miss limit.
  fault::RetryPolicy policy = fault::RetryPolicy::liveness();
};

class ProbeMonitor {
 public:
  using FailureCallback = std::function<void(double detected_at_ms)>;

  ProbeMonitor(sim::Simulator& sim, MessageNetwork& network, Address self, Address target,
               ProbeMonitorConfig cfg, FailureCallback on_failure,
               obs::Recorder& rec = obs::Recorder::global());
  ~ProbeMonitor();

  ProbeMonitor(const ProbeMonitor&) = delete;
  ProbeMonitor& operator=(const ProbeMonitor&) = delete;

  /// Feed a LivenessReply from the target.
  void on_message(const Message& msg);

  void stop();
  bool running() const { return running_; }
  int consecutive_misses() const { return misses_; }
  Address target() const { return target_; }

 private:
  void tick();

  sim::Simulator& sim_;
  MessageNetwork& network_;
  Address self_;
  Address target_;
  ProbeMonitorConfig cfg_;
  FailureCallback on_failure_;
  obs::Recorder& rec_;
  bool running_ = true;
  bool awaiting_reply_ = false;
  int misses_ = 0;
  /// Live only during a miss streak; tracks the streak against the policy
  /// and emits the shared retry/exhaustion telemetry.
  std::optional<fault::RetryBudget> streak_;
  util::Rng backoff_rng_;  ///< consumed only by jittered backoff policies
  int epoch_ = 0;  // invalidates queued ticks after stop()
  /// Queued simulator callbacks hold a weak reference to this token; if
  /// the monitor is destroyed before they fire, they observe expiry
  /// instead of dereferencing a dangling `this`.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace cloudfog::overlay

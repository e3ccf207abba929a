// Event-driven §3.2.1 join: the reference the fluid FogManager is
// cross-validated against (tests/integration/overlay_crossvalidation_test).
//
// JoinSession runs §3.2.1's supernode selection as a real message
// conversation with timeouts:
//   stage 1 — CandidateRequest to the cloud directory, collect replies;
//   stage 2 — Probe every candidate in parallel, measure RTT from the
//             simulation clock, drop those over L_max;
//   stage 3 — sequential CapacityAsk ordered by the caller's ranking
//             (reputation) or randomly, Connect to the first grant.
// The measured join latency is simply sim.now() − start time: whatever
// the messages actually took, including retries past full supernodes.
//
// PlayerAgent owns a player's overlay endpoint and dispatches incoming
// messages to its active session.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>

#include "fault/retry_policy.hpp"
#include "obs/recorder.hpp"
#include "oracle/agents.hpp"
#include "sim/simulator.hpp"

namespace cloudfog::oracle {

struct JoinConfig {
  /// L_max — maximum acceptable one-way transmission delay (ms).
  double lmax_ms = 110.0;
  /// Per-stage policy. attempt_timeout_ms bounds each stage's wait for
  /// stragglers; max_attempts > 1 additionally lets the candidate stage
  /// re-send its directory request (with the policy's backoff) when the
  /// directory stays silent, instead of giving up after one timeout.
  fault::RetryPolicy stage = fault::RetryPolicy::single_attempt(1000.0);
};

struct JoinResult {
  bool fog_connected = false;       ///< false = fall back to the cloud
  Address supernode = kNoAddress;
  double join_latency_ms = 0.0;     ///< measured on the simulation clock
  int probes = 0;
  int capacity_asks = 0;
  int candidates_received = 0;
};

class JoinSession {
 public:
  /// Scores a candidate for ordering (higher first); nullptr = random.
  using Ranker = std::function<double(Address)>;
  using DoneCallback = std::function<void(const JoinResult&)>;

  JoinSession(sim::Simulator& sim, MessageNetwork& network, Address self,
              Address directory, JoinConfig cfg, Ranker ranker, DoneCallback done,
              std::uint64_t session_id, util::Rng rng, obs::Recorder& rec);

  void start();
  void on_message(const Message& msg);
  bool finished() const { return finished_; }

 private:
  enum class Stage { kIdle, kCandidates, kProbing, kClaiming, kDone };

  void arm_timeout();
  void send_candidate_request();
  void finish_candidates();
  void finish_probing();
  void next_claim();
  void finish(bool fog_connected, Address supernode);

  sim::Simulator& sim_;
  MessageNetwork& network_;
  Address self_;
  Address directory_;
  JoinConfig cfg_;
  Ranker ranker_;
  DoneCallback done_;
  std::uint64_t session_id_;
  util::Rng rng_;
  obs::Recorder& rec_;

  Stage stage_ = Stage::kIdle;
  int stage_epoch_ = 0;  // invalidates stale timeout callbacks
  double started_at_ms_ = 0.0;
  bool finished_ = false;

  /// Tracks candidate-request (re)sends against cfg_.stage.
  std::optional<fault::RetryBudget> candidates_budget_;
  std::vector<Address> candidates_;
  std::unordered_map<Address, double> probe_sent_ms_;
  std::vector<std::pair<Address, double>> probed_rtt_ms_;  // qualified only
  std::vector<Address> claim_order_;
  std::size_t claim_index_ = 0;
  JoinResult result_;
  /// Guards queued timeout callbacks against a destroyed session (the
  /// owning PlayerAgent replaces sessions on rejoin).
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

/// A player's overlay endpoint: owns the address and the active join
/// session, which reports into `rec`.
class PlayerAgent {
 public:
  PlayerAgent(sim::Simulator& sim, MessageNetwork& network, const net::Endpoint& where,
              obs::Recorder& rec);

  Address address() const { return address_; }

  /// Starts the §3.2.1 join; `done` fires exactly once.
  void join(Address directory, JoinConfig cfg, JoinSession::Ranker ranker,
            JoinSession::DoneCallback done, util::Rng rng);

  bool join_in_progress() const { return session_ != nullptr && !session_->finished(); }

 private:
  void handle(const Message& msg);

  sim::Simulator& sim_;
  MessageNetwork& network_;
  obs::Recorder& rec_;
  Address address_ = kNoAddress;
  std::uint64_t next_session_ = 1;
  std::unique_ptr<JoinSession> session_;
};

}  // namespace cloudfog::oracle

#include "oracle/join_session.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::oracle {

namespace {

/// Interned metric handles for the message-level join protocol.
struct JoinObs {
  obs::CounterId probes_sent;
  obs::CounterId probes_answered;
  obs::CounterId claims;
  obs::CounterId joins_fog;
  obs::CounterId joins_failed;
  explicit JoinObs(obs::Registry& reg) {
    probes_sent = reg.counter("overlay.probes_sent");
    probes_answered = reg.counter("overlay.probes_answered");
    claims = reg.counter("overlay.capacity_claims");
    joins_fog = reg.counter("overlay.joins_fog");
    joins_failed = reg.counter("overlay.joins_failed");
  }
};

const JoinObs& join_obs(obs::Recorder& rec) {
  static const JoinObs handles(rec.registry());
  return handles;
}

}  // namespace

JoinSession::JoinSession(sim::Simulator& sim, MessageNetwork& network, Address self,
                         Address directory, JoinConfig cfg, Ranker ranker,
                         DoneCallback done, std::uint64_t session_id, util::Rng rng,
                         obs::Recorder& rec)
    : sim_(sim),
      network_(network),
      self_(self),
      directory_(directory),
      cfg_(cfg),
      ranker_(std::move(ranker)),
      done_(std::move(done)),
      session_id_(session_id),
      rng_(rng),
      rec_(rec) {
  CLOUDFOG_REQUIRE(cfg.lmax_ms > 0.0, "L_max must be positive");
  cfg_.stage.validate();
  CLOUDFOG_REQUIRE(static_cast<bool>(done_), "null completion callback");
}

void JoinSession::arm_timeout() {
  const int epoch = stage_epoch_;
  const std::weak_ptr<int> alive = alive_;
  sim_.schedule_in(cfg_.stage.attempt_timeout_ms / 1000.0, [this, epoch, alive] {
    if (alive.expired()) return;                     // session destroyed
    if (finished_ || epoch != stage_epoch_) return;  // the stage moved on
    switch (stage_) {
      case Stage::kCandidates: {
        double backoff_ms = 0.0;
        if (candidates_budget_ &&
            candidates_budget_->next_attempt(rng_, &backoff_ms)) {
          // The directory stayed silent: re-ask it (after any backoff)
          // rather than settling for whatever trickled in.
          if (backoff_ms > 0.0) {
            const int resend_epoch = stage_epoch_;
            const std::weak_ptr<int> still = alive_;
            sim_.schedule_in(backoff_ms / 1000.0, [this, resend_epoch, still] {
              if (still.expired() || finished_ || resend_epoch != stage_epoch_) return;
              send_candidate_request();
            });
          } else {
            send_candidate_request();
          }
        } else {
          finish_candidates();
        }
        break;
      }
      case Stage::kProbing:
        finish_probing();
        break;
      case Stage::kClaiming:
        // The asked supernode never answered: treat as a deny.
        ++claim_index_;
        next_claim();
        break;
      case Stage::kIdle:
      case Stage::kDone:
        break;
    }
  });
}

void JoinSession::start() {
  CLOUDFOG_REQUIRE(stage_ == Stage::kIdle, "join already started");
  started_at_ms_ = sim_.now() * 1000.0;
  stage_ = Stage::kCandidates;
  ++stage_epoch_;
  candidates_budget_.emplace(cfg_.stage, rec_, "join.candidates");
  candidates_budget_->next_attempt(rng_);
  send_candidate_request();
}

void JoinSession::send_candidate_request() {
  Message req;
  req.src = self_;
  req.dst = directory_;
  req.kind = MessageKind::kCandidateRequest;
  req.session = session_id_;
  network_.send(req);
  arm_timeout();
}

void JoinSession::on_message(const Message& msg) {
  if (finished_ || msg.session != session_id_) return;
  switch (msg.kind) {
    case MessageKind::kCandidateReply: {
      if (stage_ != Stage::kCandidates) return;
      if (msg.payload < 0) {
        finish_candidates();
      } else {
        candidates_.push_back(static_cast<Address>(msg.payload));
        ++result_.candidates_received;
      }
      break;
    }
    case MessageKind::kProbeReply: {
      if (stage_ != Stage::kProbing) return;
      const auto it = probe_sent_ms_.find(msg.src);
      if (it == probe_sent_ms_.end()) return;
      const double rtt = sim_.now() * 1000.0 - it->second;
      probe_sent_ms_.erase(it);
      const bool within_lmax = rtt / 2.0 <= cfg_.lmax_ms;
      if (within_lmax) probed_rtt_ms_.emplace_back(msg.src, rtt);
      if (rec_.enabled()) {
        rec_.registry().add(join_obs(rec_).probes_answered);
        static const obs::NoteId kWithinLmax = obs::intern_note("within_lmax");
        static const obs::NoteId kOverLmax = obs::intern_note("over_lmax");
        rec_.trace_at(sim_.now(), obs::EventKind::kProbeAnswered,
                      static_cast<std::int64_t>(self_), static_cast<std::int64_t>(msg.src),
                      rtt, within_lmax ? kWithinLmax : kOverLmax);
      }
      if (probe_sent_ms_.empty()) finish_probing();
      break;
    }
    case MessageKind::kCapacityGrant: {
      if (stage_ != Stage::kClaiming) return;
      // The seat is ours — complete the handshake.
      Message connect;
      connect.src = self_;
      connect.dst = msg.src;
      connect.kind = MessageKind::kConnect;
      connect.session = session_id_;
      network_.send(connect);
      break;
    }
    case MessageKind::kCapacityDeny: {
      if (stage_ != Stage::kClaiming) return;
      ++claim_index_;
      next_claim();
      break;
    }
    case MessageKind::kConnectAck: {
      finish(true, msg.src);
      break;
    }
    default:
      break;
  }
}

void JoinSession::finish_candidates() {
  if (stage_ != Stage::kCandidates) return;
  stage_ = Stage::kProbing;
  ++stage_epoch_;
  if (candidates_.empty()) {
    finish(false, kNoAddress);
    return;
  }
  for (Address candidate : candidates_) {
    probe_sent_ms_[candidate] = sim_.now() * 1000.0;
    Message probe;
    probe.src = self_;
    probe.dst = candidate;
    probe.kind = MessageKind::kProbe;
    probe.session = session_id_;
    network_.send(probe);
    ++result_.probes;
    if (rec_.enabled()) {
      rec_.registry().add(join_obs(rec_).probes_sent);
      rec_.trace_at(sim_.now(), obs::EventKind::kProbeSent,
                    static_cast<std::int64_t>(self_), static_cast<std::int64_t>(candidate));
    }
  }
  arm_timeout();
}

void JoinSession::finish_probing() {
  if (stage_ != Stage::kProbing) return;
  stage_ = Stage::kClaiming;
  ++stage_epoch_;
  claim_order_.clear();
  claim_order_.reserve(probed_rtt_ms_.size());
  for (const auto& [addr, rtt] : probed_rtt_ms_) claim_order_.push_back(addr);
  if (ranker_) {
    std::stable_sort(claim_order_.begin(), claim_order_.end(),
                     [this](Address a, Address b) { return ranker_(a) > ranker_(b); });
  } else {
    std::shuffle(claim_order_.begin(), claim_order_.end(), rng_);
  }
  claim_index_ = 0;
  next_claim();
}

void JoinSession::next_claim() {
  if (finished_) return;
  ++stage_epoch_;  // cancel the previous claim's timeout
  if (claim_index_ >= claim_order_.size()) {
    finish(false, kNoAddress);
    return;
  }
  Message ask;
  ask.src = self_;
  ask.dst = claim_order_[claim_index_];
  ask.kind = MessageKind::kCapacityAsk;
  ask.session = session_id_;
  network_.send(ask);
  ++result_.capacity_asks;
  if (rec_.enabled()) {
    rec_.registry().add(join_obs(rec_).claims);
    rec_.trace_at(sim_.now(), obs::EventKind::kCapacityClaim,
                  static_cast<std::int64_t>(self_),
                  static_cast<std::int64_t>(claim_order_[claim_index_]));
  }
  arm_timeout();
}

void JoinSession::finish(bool fog_connected, Address supernode) {
  if (finished_) return;
  finished_ = true;
  stage_ = Stage::kDone;
  ++stage_epoch_;
  result_.fog_connected = fog_connected;
  result_.supernode = supernode;
  result_.join_latency_ms = sim_.now() * 1000.0 - started_at_ms_;
  if (rec_.enabled()) {
    rec_.registry().add(fog_connected ? join_obs(rec_).joins_fog : join_obs(rec_).joins_failed);
    static const obs::NoteId kFog = obs::intern_note("fog");
    static const obs::NoteId kNoSupernode = obs::intern_note("no_supernode");
    rec_.trace_at(sim_.now(), obs::EventKind::kPlayerJoin,
                  static_cast<std::int64_t>(self_),
                  fog_connected ? static_cast<std::int64_t>(supernode) : -1,
                  result_.join_latency_ms, fog_connected ? kFog : kNoSupernode);
  }
  done_(result_);
}

PlayerAgent::PlayerAgent(sim::Simulator& sim, MessageNetwork& network,
                         const net::Endpoint& where, obs::Recorder& rec)
    : sim_(sim), network_(network), rec_(rec) {
  address_ = network_.register_endpoint(where, [this](const Message& m) { handle(m); });
}

void PlayerAgent::handle(const Message& msg) {
  if (session_) session_->on_message(msg);
}

void PlayerAgent::join(Address directory, JoinConfig cfg, JoinSession::Ranker ranker,
                       JoinSession::DoneCallback done, util::Rng rng) {
  CLOUDFOG_REQUIRE(!join_in_progress(), "join already in progress");
  session_ = std::make_unique<JoinSession>(sim_, network_, address_, directory, cfg,
                                           std::move(ranker), std::move(done),
                                           next_session_++, rng, rec_);
  session_->start();
}

}  // namespace cloudfog::oracle

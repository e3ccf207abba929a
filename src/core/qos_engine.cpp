#include "core/qos_engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/require.hpp"
#include "video/continuity.hpp"

namespace cloudfog::core {

namespace {

struct RateObs {
  obs::CounterId up{};
  obs::CounterId down{};
};

const RateObs& rate_obs(obs::Recorder& rec) {
  static const RateObs handles{rec.registry().counter("rate.switch_up"),
                               rec.registry().counter("rate.switch_down")};
  return handles;
}

}  // namespace

QosEngine::QosEngine(QosEngineConfig cfg, const net::LatencyModel& latency, obs::Recorder& rec)
    : cfg_(cfg), latency_(latency), rec_(rec) {
  CLOUDFOG_REQUIRE(cfg.substeps >= 1, "need at least one substep");
  CLOUDFOG_REQUIRE(cfg.substep_seconds > 0.0, "substep length must be positive");
  CLOUDFOG_REQUIRE(cfg.burst_headroom >= 1.0, "burst headroom below 1");
  CLOUDFOG_REQUIRE(cfg.base_jitter_ms > 0.0, "jitter mean must be positive");
}

double QosEngine::EntityLoad::utilization() const {
  if (offered_mbps <= 0.0) return 1.0;
  return std::min(1.0, (demanded_kbps / 1000.0) / offered_mbps);
}

double QosEngine::EntityLoad::queue_factor(double cap) const {
  const double u = std::min(utilization(), 0.99);
  return std::min(cap, u / (1.0 - u));
}

double QosEngine::EntityLoad::share_kbps(double bitrate_kbps) const {
  if (offered_mbps <= 0.0) return 0.0;
  const double offered_kbps = offered_mbps * 1000.0;
  if (demanded_kbps <= offered_kbps) return offered_kbps;  // unsaturated
  return bitrate_kbps * offered_kbps / demanded_kbps;      // proportional share
}

const net::Endpoint& QosEngine::serving_endpoint(const ServingRef& ref,
                                                 const std::vector<SupernodeState>& fleet,
                                                 const Cloud& cloud,
                                                 const std::vector<CdnServerState>& cdn) const {
  switch (ref.kind) {
    case ServingKind::kSupernode:
      return fleet[ref.index].endpoint;
    case ServingKind::kCloud:
      return cloud.datacenter(ref.index).endpoint;
    case ServingKind::kCdn:
      return cdn[ref.index].endpoint;
    case ServingKind::kNone:
      break;
  }
  CLOUDFOG_REQUIRE(false, "player has no serving entity");
  return cloud.datacenter(0).endpoint;  // unreachable
}

void QosEngine::evaluate_player(PlayerState& player, PlayerMemo& memo, Acc& acc, int ahead,
                                const std::vector<SupernodeState>& fleet, const Cloud& cloud,
                                const std::vector<CdnServerState>& cdn) const {
  EntityLoad load;
  switch (player.serving.kind) {
    case ServingKind::kSupernode: {
      const auto& sn = fleet[player.serving.index];
      load = EntityLoad{sn.offered_upload_mbps(), sn.demanded_kbps};
      break;
    }
    case ServingKind::kCloud: {
      const auto& dc = cloud.datacenter(player.serving.index);
      load = EntityLoad{dc.uplink_mbps, dc.demanded_kbps};
      break;
    }
    case ServingKind::kCdn: {
      const auto& edge = cdn[player.serving.index];
      load = EntityLoad{edge.uplink_mbps, edge.demanded_kbps};
      break;
    }
    case ServingKind::kNone:
      break;
  }

  const double bitrate = player.session->current_bitrate_kbps();
  const net::Endpoint& e = serving_endpoint(player.serving, fleet, cloud, cdn);

  // Tier-1 memo: the pure geodesic terms. one_way_ms is symmetric bit for
  // bit (a.access + b.access commutes, the distance is a square sum), so
  // one cached value substitutes into both the (p,e) rtt and the (e,p)
  // video-path expression the recompute path uses.
  PathTerms& terms = memo.terms;
  const bool terms_fresh = cfg_.memoize && terms.valid && terms.ref == player.serving &&
                           terms.player_ep == player.info.endpoint && terms.entity_ep == e;
  if (!terms_fresh) {
    terms.ref = player.serving;
    terms.player_ep = player.info.endpoint;
    terms.entity_ep = e;
    terms.one_way_ms = latency_.one_way_ms(e, player.info.endpoint);
    terms.rtt_ms = latency_.rtt_ms(player.info.endpoint, e);
    terms.wan_kbps = latency_.wan_throughput_mbps(terms.rtt_ms) * 1000.0;
    terms.valid = true;
    memo.obs.valid = false;
  }

  // A malicious supernode's deliberate hold-back (§3.6 extension)
  // delays both the response and every video packet.
  const double sabotage_ms = player.serving.kind == ServingKind::kSupernode
                                 ? fleet[player.serving.index].sabotage_delay_ms
                                 : 0.0;
  // Injected faults degrade fog paths: a slow node delays frames like
  // sabotage does; an impaired cloud→supernode update channel delays
  // the response (the supernode renders against stale state) and drops
  // update packets; a partition between the player's state DC and the
  // supernode's region starves the stream entirely.
  double fault_response_ms = 0.0;
  double fault_video_ms = 0.0;
  double fault_loss = 0.0;
  if (faults_ != nullptr && faults_->any_active() &&
      player.serving.kind == ServingKind::kSupernode) {
    const std::size_t sn_index = player.serving.index;
    const double slow = faults_->slow_ms(sn_index);
    fault_response_ms = slow + faults_->channel().update_delay_ms;
    fault_video_ms = slow;
    fault_loss = faults_->channel().update_loss;
    if (faults_->partitioned_from_supernode(player.state_dc, sn_index)) {
      fault_loss = 1.0;
    }
  }

  // Tier-2 memo: with the terms fresh and every remaining arithmetic
  // input bit-unchanged, the cached observation + continuity are exactly
  // what the recomputation below would produce.
  ObsMemo& om = memo.obs;
  video::PathObservation path;
  double continuity = 0.0;
  if (terms_fresh && om.valid && om.game == player.game && om.bitrate == bitrate &&
      om.offered_mbps == load.offered_mbps && om.demanded_kbps == load.demanded_kbps &&
      om.cross_server_ms == player.cross_server_ms && om.sabotage_ms == sabotage_ms &&
      om.fault_response_ms == fault_response_ms && om.fault_video_ms == fault_video_ms &&
      om.fault_loss == fault_loss) {
    path = om.path;
    continuity = om.continuity;
  } else {
    const double down_kbps = player.info.bandwidth.download_mbps * 1000.0;
    const double share = load.share_kbps(bitrate);
    // Raw path rate bounds serialization delay; the sustained rate the
    // adapter/buffer sees is additionally capped at what the sender can
    // generate (realtime video + a small burst window).
    const double raw_kbps = std::max(1.0, std::min({terms.wan_kbps, down_kbps, share}));
    const double throughput_kbps = std::min(raw_kbps, bitrate * cfg_.burst_headroom);

    // Transfer = frame serialization over the path + queueing at the
    // entity's uplink (M/M/1-style u/(1−u) of the uplink service time).
    const double frame = game::frame_bits(bitrate);
    const double queue = load.queue_factor(cfg_.max_queue_factor);
    const double uplink_kbps = std::max(raw_kbps, load.offered_mbps * 1000.0);
    const double transfer_ms = frame / (raw_kbps * 1000.0) * 1000.0 +
                               queue * frame / (uplink_kbps * 1000.0) * 1000.0;
    // Response latency follows §3.1: the upstream action message and the
    // cloud→supernode update are small and fast ("uploading from the
    // players to the cloud does not seriously affect the response
    // latency"); the downstream video delivery dominates. So response =
    // playout/processing + state computation + inter-server communication
    // + (rendering) + the video's one-way path + transfer.
    double base_ms = cfg_.playout_processing_ms + cfg_.state_compute_ms;
    switch (player.serving.kind) {
      case ServingKind::kCloud:
        base_ms += player.cross_server_ms;
        base_ms += terms.one_way_ms;
        break;
      case ServingKind::kSupernode:
        base_ms += player.cross_server_ms;
        base_ms += cfg_.render_ms;
        base_ms += terms.one_way_ms;
        break;
      case ServingKind::kCdn:
        // EdgeCloud computes game state at the edge: every response waits
        // on a wide-area state-sync round between edge servers (§2: the
        // improvement of CDN "is not significant because the servers need
        // to cooperate").
        base_ms += cfg_.cdn_cooperation_ms;
        base_ms += cfg_.render_ms;
        base_ms += terms.one_way_ms;
        break;
      case ServingKind::kNone:
        CLOUDFOG_REQUIRE(false, "player has no serving entity");
    }
    const double response_ms = base_ms + transfer_ms + sabotage_ms + fault_response_ms;
    // Video packets only traverse entity → player; the action path and
    // state computation delay the *response*, not packet delivery.
    const double video_ms = terms.one_way_ms + transfer_ms + sabotage_ms + fault_video_ms;
    const double jitter_ms =
        cfg_.base_jitter_ms * (1.0 + cfg_.jitter_inflation * load.utilization()) +
        cfg_.path_jitter_fraction * terms.rtt_ms;

    path.response_latency_ms = response_ms;
    path.video_latency_ms = video_ms;
    path.jitter_mean_ms = jitter_ms;
    path.throughput_kbps = throughput_kbps;
    path.interval_s = cfg_.substep_seconds;
    path.extra_loss = fault_loss;
    continuity = player.session->continuity_for(path);

    om.game = player.game;
    om.bitrate = bitrate;
    om.offered_mbps = load.offered_mbps;
    om.demanded_kbps = load.demanded_kbps;
    om.cross_server_ms = player.cross_server_ms;
    om.sabotage_ms = sabotage_ms;
    om.fault_response_ms = fault_response_ms;
    om.fault_video_ms = fault_video_ms;
    om.fault_loss = fault_loss;
    om.path = path;
    om.continuity = continuity;
    om.valid = cfg_.memoize;
  }

  // Every substep of the visit applies this observation. Past the first,
  // that is exact only while every bitrate in the subcycle is fixed: each
  // of them would hit the tier-2 memo with it.
  for (int r = 0; r < ahead; ++r) {
    const auto sample = player.session->apply(path, continuity);
    if (sample.decision != video::RateDecision::kHold) {
      CLOUDFOG_REQUIRE(ahead == 1, "a replayed substep switched its bitrate");
      if (rec_.enabled()) {
        const bool up = sample.decision == video::RateDecision::kUp;
        rec_.registry().add(up ? rate_obs(rec_).up : rate_obs(rec_).down);
        rec_.trace(obs::EventKind::kRateSwitch,
                   static_cast<std::int64_t>(player.session->game_id()),
                   player.session->current_quality_level(), up ? 1.0 : -1.0);
      }
    }
    acc.latency_sum += sample.response_latency_ms;
    acc.continuity_sum += sample.continuity;
    acc.bitrate_sum += sample.bitrate_kbps;
  }
}

SubcycleQos QosEngine::run_subcycle(std::vector<PlayerState>& players,
                                    std::vector<SupernodeState>& fleet, Cloud& cloud,
                                    std::vector<CdnServerState>& cdn) const {
  CLOUDFOG_TIMED_SCOPE(rec_, "qos.subcycle");
  SubcycleQos out;

  if (memo_players_ != players.data() || memo_.size() != players.size()) {
    memo_.assign(players.size(), PlayerMemo{});
    memo_players_ = players.data();
  }

  // The work list — online sessions attached to a serving entity — is
  // invariant across substeps: nothing in the subcycle changes liveness
  // or attachment. Build it once; every walk below follows it in index
  // order, and the per-player accumulators are indexed by work slot.
  // Nothing changes a session's cross-server term within the subcycle
  // either, so the non-CDN ones are copied out here for the server-latency
  // sum.
  work_.clear();
  server_ms_.clear();
  bool any_adapts = false;
  for (std::size_t i = 0; i < players.size(); ++i) {
    const PlayerState& player = players[i];
    if (!player.online || !player.session.has_value() || !player.serving.attached()) continue;
    work_.push_back(static_cast<std::uint32_t>(i));
    any_adapts = any_adapts || player.session->adapts();
    switch (player.serving.kind) {
      case ServingKind::kSupernode:
        ++out.fog_served;
        server_ms_.push_back(player.cross_server_ms);
        break;
      case ServingKind::kCloud:
        ++out.cloud_served;
        server_ms_.push_back(player.cross_server_ms);
        break;
      case ServingKind::kCdn:
        ++out.cdn_served;
        break;
      case ServingKind::kNone:
        break;
    }
  }
  out.online_sessions = work_.size();
  acc_.assign(work_.size(), Acc{});

  // Substeps per visit (DESIGN.md §10.2). Only a bitrate switch ties one
  // session's substeps to another's, through its entity's demand. With no
  // session able to switch, every demand, and with it every session's
  // memoized path, is the same in all substeps, so each session runs its
  // substeps back to back. The memo-free reference keeps substep order.
  const int ahead = cfg_.memoize && !any_adapts ? cfg_.substeps : 1;

  // Update-feed egress is likewise constant within the subcycle
  // (served/deployed only change between subcycles): one O(fleet) scan
  // instead of one per substep. The summands are exact in double
  // (integral kbps), so the regrouping is bit-neutral.
  double feed_kbps = 0.0;
  for (const auto& sn : fleet) {
    if (sn.deployed && sn.served > 0) feed_kbps += cfg_.update_feed_kbps;
  }
  for (const auto& edge : cdn) {
    if (edge.served > 0) feed_kbps += cfg_.update_feed_kbps;
  }

  // Demand tallies for the next visit, per entity. Each session's
  // bitrate is added in work-list order, so every entity's sum is the one
  // a separate tally pass over the work list would produce, bit for bit.
  auto& datacenters = cloud.datacenters();
  next_sn_kbps_.assign(fleet.size(), 0.0);
  next_dc_kbps_.assign(datacenters.size(), 0.0);
  next_cdn_kbps_.assign(cdn.size(), 0.0);
  const auto tally = [&](const PlayerState& player) {
    const double bitrate = player.session->current_bitrate_kbps();
    switch (player.serving.kind) {
      case ServingKind::kSupernode:
        next_sn_kbps_[player.serving.index] += bitrate;
        break;
      case ServingKind::kCloud:
        next_dc_kbps_[player.serving.index] += bitrate;
        break;
      case ServingKind::kCdn:
        next_cdn_kbps_[player.serving.index] += bitrate;
        break;
      case ServingKind::kNone:
        break;
    }
  };
  // Moves the tallies onto the entities and clears them for the next one.
  const auto publish = [](auto& entities, std::vector<double>& kbps) {
    for (std::size_t j = 0; j < entities.size(); ++j) {
      entities[j].demanded_kbps = kbps[j];
      kbps[j] = 0.0;
    }
  };
  for (const std::uint32_t i : work_) tally(players[i]);

  const auto samples = static_cast<double>(cfg_.substeps);
  double egress_sum_mbps = 0.0;
  double latency_sum = 0.0;
  double continuity_sum = 0.0;
  double mos_sum = 0.0;
  std::size_t satisfied = 0;

  for (int step = 0; step < cfg_.substeps; step += ahead) {
    publish(fleet, next_sn_kbps_);
    publish(datacenters, next_dc_kbps_);
    publish(cdn, next_cdn_kbps_);

    // Cloud egress in each substep of the visit: direct video + update
    // feeds to every supernode actively serving players. EdgeCloud
    // servers likewise need a consistency feed to keep their world
    // replicas in sync.
    double egress_kbps = 0.0;
    for (const auto& dc : datacenters) egress_kbps += dc.demanded_kbps;
    egress_kbps += feed_kbps;
    for (int r = 0; r < ahead; ++r) egress_sum_mbps += egress_kbps / 1000.0;

    // One walk: the path observation and rate adaptation of `ahead`
    // substeps, then either the demand the adapted bitrate puts on its
    // entity next visit or, on the last visit, the session's subcycle
    // aggregate. The last visit tallies nothing, so the entities keep its
    // demand.
    const bool last_visit = step + ahead == cfg_.substeps;
    CLOUDFOG_TIMED_SCOPE(rec_, "qos.rate_adapt");
    for (std::size_t k = 0; k < work_.size(); ++k) {
      const std::uint32_t i = work_[k];
      PlayerState& player = players[i];
      Acc& acc = acc_[k];
      evaluate_player(player, memo_[i], acc, ahead, fleet, cloud, cdn);
      if (!last_visit) {
        tally(player);
        continue;
      }
      const double avg_lat = acc.latency_sum / samples;
      const double avg_cont = acc.continuity_sum / samples;
      const double avg_bitrate = acc.bitrate_sum / samples;
      latency_sum += avg_lat;
      continuity_sum += avg_cont;
      mos_sum += qoe_.mos(avg_lat, std::min(1.0, avg_cont), avg_bitrate);
      if (avg_cont >= video::kSatisfactionThreshold) ++satisfied;

      // Feed the per-cycle continuity used for end-of-cycle supernode
      // ratings (§4.1): the player rates what it actually experienced.
      player.cycle_continuity_sum += avg_cont;
      player.cycle_continuity_samples += 1.0;
    }
  }

  // The server-latency sum in (substep, work slot) order, as the
  // substep-by-substep walk adds it.
  double server_latency_sum = 0.0;
  for (int step = 0; step < cfg_.substeps; ++step) {
    for (const double ms : server_ms_) server_latency_sum += ms;
  }
  const std::size_t server_latency_samples =
      server_ms_.size() * static_cast<std::size_t>(cfg_.substeps);

  if (out.online_sessions > 0) {
    out.avg_response_latency_ms = latency_sum / static_cast<double>(out.online_sessions);
    out.avg_continuity = continuity_sum / static_cast<double>(out.online_sessions);
    out.avg_mos = mos_sum / static_cast<double>(out.online_sessions);
    out.satisfied_fraction =
        static_cast<double>(satisfied) / static_cast<double>(out.online_sessions);
  }
  out.avg_server_latency_ms = server_latency_samples == 0
                                  ? 0.0
                                  : server_latency_sum / static_cast<double>(server_latency_samples);
  out.cloud_egress_mbps = egress_sum_mbps / static_cast<double>(cfg_.substeps);
  return out;
}

}  // namespace cloudfog::core

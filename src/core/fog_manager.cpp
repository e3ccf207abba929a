#include "core/fog_manager.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

namespace {

/// Interned metric handles for the §3.2 selection protocol (valid in every
/// recorder; resolved once, through whichever reports first).
struct FogObs {
  obs::CounterId probes_sent;
  obs::CounterId probes_qualified;
  obs::CounterId capacity_asks;
  obs::CounterId claims_granted;
  obs::CounterId cloud_fallbacks;
  obs::HistogramId probe_rtt_ms;
  explicit FogObs(obs::Registry& reg) {
    probes_sent = reg.counter("fog.probes_sent");
    probes_qualified = reg.counter("fog.probes_qualified");
    capacity_asks = reg.counter("fog.capacity_asks");
    claims_granted = reg.counter("fog.claims_granted");
    cloud_fallbacks = reg.counter("fog.cloud_fallbacks");
    probe_rtt_ms = reg.histogram("fog.probe_rtt_ms", 0.0, 500.0, 50);
  }
};

const FogObs& fog_obs(obs::Recorder& rec) {
  static const FogObs handles(rec.registry());
  return handles;
}

/// Interned note vocabulary for the selection protocol's trace events.
struct FogNotes {
  obs::NoteId crashed = obs::intern_note("crashed");
  obs::NoteId blackholed = obs::intern_note("blackholed");
  obs::NoteId partitioned = obs::intern_note("partitioned");
  obs::NoteId within_lmax = obs::intern_note("within_lmax");
  obs::NoteId over_lmax = obs::intern_note("over_lmax");
  obs::NoteId granted = obs::intern_note("granted");
  obs::NoteId denied = obs::intern_note("denied");
};

const FogNotes& fog_notes() {
  static const FogNotes notes;
  return notes;
}

}  // namespace

FogManager::FogManager(FogManagerConfig cfg, const Cloud& cloud,
                       const net::LatencyModel& latency, obs::Recorder& rec)
    : cfg_(cfg), cloud_(cloud), latency_(latency), rec_(rec) {
  CLOUDFOG_REQUIRE(cfg.candidate_count >= 1, "need at least one candidate");
  CLOUDFOG_REQUIRE(cfg.lmax_fraction_of_requirement > 0.0, "L_max fraction must be positive");
  cfg.detection.validate();
  cfg.selection.validate();
}

SelectionOutcome FogManager::try_candidates(PlayerState& player,
                                            std::vector<SupernodeState>& fleet,
                                            const std::vector<std::size_t>& candidates,
                                            double lmax_ms, int current_day,
                                            bool reputation_enabled, util::Rng& rng,
                                            fault::RetryBudget* budget) const {
  SelectionOutcome out;
  // Active blackholes / partitions make probes vanish; only then is the
  // player's region needed (its game-state datacenter — the same nearest-DC
  // mapping the fault plan uses for supernode regions).
  const bool impaired = faults_ != nullptr && faults_->any_active();

  // Step 2: probe every candidate; drop those whose one-way transmission
  // delay exceeds L_max. Probes run in parallel, so the protocol pays the
  // slowest probe round-trip once.
  auto& qualified = qualified_;
  qualified.clear();
  double slowest_probe = 0.0;
  for (std::size_t idx : candidates) {
    const SupernodeState& sn = fleet[idx];
    if (!sn.deployed) continue;
    // With faults in flight, a crashed or unreachable candidate swallows
    // the probe: the player waits the full probe timeout (in parallel
    // with the others) and never qualifies the node. Without faults a
    // failed node is skipped for free, as before this subsystem existed.
    if (impaired && (sn.failed || faults_->blackholed(idx) ||
                     faults_->partitioned_from_supernode(player.state_dc, idx))) {
      ++out.probes;
      slowest_probe = std::max(slowest_probe, cfg_.selection.attempt_timeout_ms);
      if (rec_.enabled()) {
        rec_.trace(obs::EventKind::kProbeSent, static_cast<std::int64_t>(player.info.id),
                   static_cast<std::int64_t>(idx), 0.0,
                   sn.failed ? fog_notes().crashed
                             : (faults_->blackholed(idx) ? fog_notes().blackholed
                                                         : fog_notes().partitioned));
      }
      continue;
    }
    if (sn.failed) continue;
    const double rtt = latency_.rtt_ms(player.info.endpoint, sn.endpoint);
    ++out.probes;
    slowest_probe = std::max(slowest_probe, rtt);
    const bool within_lmax = rtt / 2.0 <= lmax_ms;
    if (within_lmax) {
      // Random ordering (step 3 without the strategy) never reads the score.
      qualified.push_back(Probed{
          idx, rtt, reputation_enabled ? player.reputation.score(idx, current_day) : 0.0});
    }
    if (rec_.enabled()) {
      rec_.registry().observe(fog_obs(rec_).probe_rtt_ms, rtt);
      rec_.trace(obs::EventKind::kProbeSent, static_cast<std::int64_t>(player.info.id),
                 static_cast<std::int64_t>(idx));
      rec_.trace(obs::EventKind::kProbeAnswered, static_cast<std::int64_t>(player.info.id),
                 static_cast<std::int64_t>(idx), rtt,
                 within_lmax ? fog_notes().within_lmax : fog_notes().over_lmax);
    }
  }
  if (rec_.enabled()) {
    // Once per join: every probe above was sent, the within-L_max ones
    // (and only those) qualified.
    rec_.registry().add(fog_obs(rec_).probes_sent, static_cast<std::uint64_t>(out.probes));
    rec_.registry().add(fog_obs(rec_).probes_qualified, qualified.size());
  }
  out.join_latency_ms += slowest_probe;
  if (budget != nullptr) budget->charge_ms(slowest_probe);

  // Step 3: order by reputation (or randomly without the strategy).
  if (reputation_enabled) {
    std::stable_sort(qualified.begin(), qualified.end(),
                     [](const Probed& a, const Probed& b) { return a.score > b.score; });
  } else {
    std::shuffle(qualified.begin(), qualified.end(), rng);
  }

  // Step 4: sequential capacity claims — each costs one RTT and draws one
  // attempt from the selection budget.
  for (const Probed& cand : qualified) {
    if (budget != nullptr && !budget->next_attempt(rng)) {
      out.budget_exhausted = true;
      break;
    }
    SupernodeState& sn = fleet[cand.index];
    ++out.capacity_asks;
    out.join_latency_ms += cand.rtt_ms;
    if (budget != nullptr) budget->charge_ms(cand.rtt_ms);
    const bool granted = sn.accepting();
    if (rec_.enabled()) {
      rec_.registry().add(fog_obs(rec_).capacity_asks);
      rec_.trace(obs::EventKind::kCapacityClaim, static_cast<std::int64_t>(player.info.id),
                 static_cast<std::int64_t>(cand.index), granted ? 1.0 : 0.0,
                 granted ? fog_notes().granted : fog_notes().denied);
    }
    if (granted) {
      ++sn.served;
      cloud_.note_seat_change(fleet, cand.index);
      player.serving = ServingRef{ServingKind::kSupernode, cand.index};
      out.serving = player.serving;
      out.join_latency_ms += cfg_.connect_setup_ms;
      if (rec_.enabled()) rec_.registry().add(fog_obs(rec_).claims_granted);
      return out;
    }
  }

  out.serving = ServingRef{};  // caller decides the cloud fallback
  return out;
}

std::size_t FogManager::nearest_dc(PlayerState& player) const {
  if (player.nearest_dc_cache < 0) {
    player.nearest_dc_cache =
        static_cast<std::int64_t>(cloud_.nearest_datacenter(player.info.endpoint));
  }
  return static_cast<std::size_t>(player.nearest_dc_cache);
}

SelectionOutcome FogManager::select_with_budget(PlayerState& player,
                                                std::vector<SupernodeState>& fleet,
                                                const game::GameCatalog& catalog,
                                                int current_day, bool reputation_enabled,
                                                util::Rng& rng,
                                                fault::RetryBudget& budget) const {
  // One scope per join: the discovery/probe split lives in the counters,
  // and finer scopes cost a measurable share of the work they time.
  CLOUDFOG_TIMED_SCOPE(rec_, "fog.select");
  // Step 1: candidate lookup at the cloud — one RTT to the nearest DC.
  const std::size_t dc = nearest_dc(player);
  const double cloud_rtt =
      latency_.rtt_ms(player.info.endpoint, cloud_.datacenter(dc).endpoint);
  budget.charge_ms(cloud_rtt);
  cloud_.candidate_supernodes_for(player, fleet, cfg_.candidate_count,
                                  player.candidate_supernodes);

  const double lmax_ms = catalog.game(player.game).latency_requirement_ms *
                         cfg_.lmax_fraction_of_requirement;
  SelectionOutcome out = try_candidates(player, fleet, player.candidate_supernodes, lmax_ms,
                                        current_day, reputation_enabled, rng, &budget);
  out.join_latency_ms += cloud_rtt;

  if (!out.serving.attached()) {
    // Step 5: no supernode accepted — stream directly from the cloud.
    player.serving = ServingRef{ServingKind::kCloud, dc};
    out.serving = player.serving;
    out.join_latency_ms += cfg_.connect_setup_ms;
    if (rec_.enabled()) rec_.registry().add(fog_obs(rec_).cloud_fallbacks);
  }
  return out;
}

SelectionOutcome FogManager::select_supernode(PlayerState& player,
                                              std::vector<SupernodeState>& fleet,
                                              const game::GameCatalog& catalog,
                                              int current_day, bool reputation_enabled,
                                              util::Rng& rng) const {
  fault::RetryBudget budget(cfg_.selection, rec_, "fog.select");
  return select_with_budget(player, fleet, catalog, current_day, reputation_enabled, rng,
                            budget);
}

SelectionOutcome FogManager::migrate(PlayerState& player, std::vector<SupernodeState>& fleet,
                                     const game::GameCatalog& catalog, int current_day,
                                     bool reputation_enabled, util::Rng& rng) const {
  const double lmax_ms = catalog.game(player.game).latency_requirement_ms *
                         cfg_.lmax_fraction_of_requirement;

  // Failure detection: the periodic probes have to run out first; the
  // detection time also counts against the selection deadline.
  fault::RetryBudget budget(cfg_.selection, rec_, "fog.migrate");
  budget.charge_ms(cfg_.detection.detection_ms());
  SelectionOutcome out = try_candidates(player, fleet, player.candidate_supernodes, lmax_ms,
                                        current_day, reputation_enabled, rng, &budget);
  out.join_latency_ms += cfg_.detection.detection_ms();

  if (!out.serving.attached()) {
    if (out.budget_exhausted) {
      // Deadline spent on the cached candidates already: degrade to the
      // cloud immediately rather than starting a full search.
      const std::size_t dc = nearest_dc(player);
      player.serving = ServingRef{ServingKind::kCloud, dc};
      out.serving = player.serving;
      out.join_latency_ms += cfg_.connect_setup_ms;
      if (rec_.enabled()) rec_.registry().add(fog_obs(rec_).cloud_fallbacks);
      return out;
    }
    // Candidate cache exhausted — run the full protocol via the cloud,
    // draining the same deadline budget.
    SelectionOutcome full = select_with_budget(player, fleet, catalog, current_day,
                                               reputation_enabled, rng, budget);
    full.join_latency_ms += out.join_latency_ms;
    full.probes += out.probes;
    full.capacity_asks += out.capacity_asks;
    return full;
  }
  return out;
}

void FogManager::release(PlayerState& player, std::vector<SupernodeState>& fleet) const {
  // Datacenter / CDN load tallies are recomputed from assignments each
  // subcycle by the QoS engine; only supernode seat counts are live state.
  if (player.serving.kind == ServingKind::kSupernode) {
    SupernodeState& sn = fleet[player.serving.index];
    CLOUDFOG_REQUIRE(sn.served > 0, "supernode load underflow");
    --sn.served;
    cloud_.note_seat_change(fleet, player.serving.index);
  }
  player.serving = ServingRef{};
}

double FogManager::supernode_join_latency_ms(const SupernodeState& sn) const {
  const std::size_t dc = cloud_.nearest_datacenter(sn.endpoint);
  return latency_.rtt_ms(sn.endpoint, cloud_.datacenter(dc).endpoint) + cfg_.connect_setup_ms;
}

}  // namespace cloudfog::core

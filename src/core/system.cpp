#include "core/system.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>

#include "obs/obs.hpp"
#include "util/distributions.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

namespace {

social::PartitionerConfig partitioner_config(const SystemConfig& cfg, int total_servers) {
  social::PartitionerConfig pc;
  pc.communities = total_servers;
  pc.max_swap_trials = cfg.partitioner_swap_trials;
  pc.max_consecutive_miss = cfg.partitioner_miss_limit;
  return pc;
}

/// Interned metric handles for the system layer; resolved once per process
/// (valid in every recorder).
struct SystemObs {
  obs::CounterId player_joins;
  obs::CounterId player_leaves;
  obs::CounterId migrations;
  obs::CounterId supernode_failures;
  obs::CounterId cloud_rescues;
  obs::CounterId provisioning_rounds;
  obs::CounterId ratings;
  obs::GaugeId online;
  obs::GaugeId deployed;
  obs::HistogramId join_ms;
  obs::HistogramId migration_ms;
  explicit SystemObs(obs::Registry& reg) {
    player_joins = reg.counter("system.player_joins");
    player_leaves = reg.counter("system.player_leaves");
    migrations = reg.counter("system.migrations");
    supernode_failures = reg.counter("system.supernode_failures");
    cloud_rescues = reg.counter("system.cloud_rescues");
    provisioning_rounds = reg.counter("system.provisioning_rounds");
    ratings = reg.counter("reputation.ratings");
    online = reg.gauge("system.online_sessions");
    deployed = reg.gauge("system.deployed_supernodes");
    join_ms = reg.histogram("system.player_join_ms", 0.0, 2000.0, 40);
    migration_ms = reg.histogram("system.migration_ms", 0.0, 2000.0, 40);
  }
};

const SystemObs& sys_obs(obs::Recorder& rec) {
  static const SystemObs handles(rec.registry());
  return handles;
}

const char* arm_label(const SystemConfig& cfg) {
  switch (cfg.architecture) {
    case Architecture::kCloudDirect:
      return "cloud";
    case Architecture::kCdn:
      return "cdn";
    case Architecture::kCloudFog:
      return cfg.strategies.provisioning ? "cloudfog/A" : "cloudfog/B";
  }
  return "unknown";
}

}  // namespace

System::System(const Testbed& testbed, SystemConfig cfg, std::uint64_t seed,
               obs::Recorder& rec)
    : testbed_(testbed),
      rec_(rec),
      cfg_(cfg),
      rng_(util::splitmix64(seed), util::splitmix64(seed ^ 0x5e57e11aULL)),
      cloud_(testbed.make_datacenters(), testbed.latency(), net::IpLocator{}),
      fog_(cfg.fog, cloud_, testbed.latency(), rec),
      qos_([&] {
        QosEngineConfig qc = cfg.qos;
        qc.base_jitter_ms = testbed.trace().base_jitter_ms();
        return qc;
      }(), testbed.latency(), rec),
      provisioner_(cfg.provisioning, rec),
      partition_(testbed.players().size(), 0) {
  cfg_.adapter.enabled = cfg_.strategies.rate_adaptation;
  cloud_.set_candidate_mode(cfg_.discovery);

  total_servers_ = static_cast<int>(cloud_.datacenter_count()) *
                   testbed_.config().servers_per_datacenter;
  CLOUDFOG_REQUIRE(total_servers_ >= 1, "no game servers");

  // Player runtime state. Each player's private reputation store and
  // state-datacenter are fixed up front.
  players_.reserve(testbed_.players().size());
  for (const PlayerInfo& info : testbed_.players()) {
    PlayerState state;
    state.info = info;
    state.state_dc = cloud_.nearest_datacenter(info.endpoint);
    state.nearest_dc_cache = static_cast<std::int64_t>(state.state_dc);
    players_.push_back(std::move(state));
  }
  online_.assign(players_.size(), 0);

  // Architecture-specific entities.
  if (cfg_.architecture == Architecture::kCloudFog) {
    fleet_ = testbed_.make_supernode_fleet(cfg_.supernode_count);
    util::Rng reg_rng = rng_.fork("sn-register");
    // §3.2.1: each supernode registers once, one RTT to the cloud (Fig. 9).
    for (auto& sn : fleet_) {
      cloud_.register_supernode(sn, reg_rng);
      collector_.record_supernode_join(fog_.supernode_join_latency_ms(sn));
    }

    // Designated throttlers (§4.1): stable identities whose owners may
    // limit offered bandwidth in any given cycle.
    throttle80_.assign(fleet_.size(), 0);
    throttle50_.assign(fleet_.size(), 0);
    util::Rng thr_rng = rng_.fork("throttlers");
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      if (thr_rng.chance(cfg_.throttling.fraction_throttle_80)) {
        throttle80_[i] = 1;
      } else if (thr_rng.chance(cfg_.throttling.fraction_throttle_50 /
                                std::max(1e-9, 1.0 - cfg_.throttling.fraction_throttle_80))) {
        throttle50_[i] = 1;
      }
    }

    // §3.6 extension: adversarial supernodes, recruited on the
    // "malicious" fork.
    if (cfg_.adversary.active()) {
      adversary_ = std::make_unique<scenario::AdversaryModel>(cfg_.adversary, fleet_,
                                                              rng_.fork("malicious"));
    }

    if (!fleet_.empty()) {
      double cap_sum = 0.0;
      for (const auto& sn : fleet_) cap_sum += sn.capacity;
      mean_fleet_capacity_ = cap_sum / static_cast<double>(fleet_.size());
    }

    // Initial deployment: the fixed pool (CloudFog/B) or everything.
    base_deployment_ = cfg_.fixed_deployment == 0
                           ? fleet_.size()
                           : std::min(cfg_.fixed_deployment, fleet_.size());
    for (std::size_t i = 0; i < fleet_.size(); ++i) fleet_[i].deployed = i < base_deployment_;
  } else if (cfg_.architecture == Architecture::kCdn) {
    cdn_ = testbed_.make_cdn_servers(cfg_.cdn_server_count);
  }

  // Initial server placement: random; the social strategy re-partitions
  // on its weekly cadence (and once up front so day 1 benefits).
  util::Rng part_rng = rng_.fork("initial-partition");
  for (auto& server : partition_) {
    server = static_cast<social::CommunityId>(part_rng.uniform_int(0, total_servers_ - 1));
  }
  if (cfg_.strategies.social_assignment) reassign_servers("partition");

  remaining_subcycles_.assign(players_.size(), 0);

  fallback_ = fault::FallbackGovernor(cfg_.fallback);
  if (cfg_.faults.enabled && cfg_.architecture == Architecture::kCloudFog) {
    setup_fault_injection(seed);
  }
}

void System::setup_fault_injection(std::uint64_t seed) {
  fault::FaultPlanConfig pc = cfg_.faults;
  pc.supernode_count = fleet_.size();
  pc.region_count = cloud_.datacenter_count();
  if (pc.seed == 0) pc.seed = util::splitmix64(seed ^ 0xc4a05u);
  pc.seed = fault::fault_seed_from_env(pc.seed);
  // Victim selection draws from its own stream — rng_.fork would perturb
  // the shared stream and break the disabled-vs-empty-plan equivalence.
  fault_rng_ = util::Rng(util::splitmix64(pc.seed ^ util::hash64("victims")),
                         util::hash64("victims"));

  fault_state_.resize(fleet_.size(), cloud_.datacenter_count());
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    fault_state_.set_supernode_region(i, cloud_.nearest_datacenter(fleet_[i].endpoint));
  }
  fallback_.resize(players_.size());

  injector_ = std::make_unique<fault::FaultInjector>(
      fault_sim_, fault_state_, fault::FaultPlan::generate(pc),
      [this](const fault::FaultSpec& spec) { return on_crash(spec); },
      [this](const fault::FaultSpec& spec, std::size_t target) {
        on_crash_cleared(spec, target);
      },
      rec_);
  injector_->arm();
  qos_.set_fault_state(&fault_state_);
  fog_.set_fault_state(&fault_state_);
}

std::size_t System::on_crash(const fault::FaultSpec& spec) {
  // Resolve the victim: an explicitly-named node, else prefer a serving
  // node (a crash nobody was streaming from is a non-event), else any
  // deployed live node.
  std::size_t target = spec.target;
  if (target == fault::kAnyTarget || target >= fleet_.size()) {
    std::vector<std::size_t> serving;
    std::vector<std::size_t> idle;
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      if (!fleet_[i].deployed || fleet_[i].failed) continue;
      (fleet_[i].served > 0 ? serving : idle).push_back(i);
    }
    const auto& pool = serving.empty() ? idle : serving;
    if (pool.empty()) return fault::kAnyTarget;
    target = pool[static_cast<std::size_t>(
        fault_rng_.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  } else if (fleet_[target].failed) {
    return fault::kAnyTarget;  // already down — an overlapping crash is moot
  }

  fleet_[target].failed = true;
  // Before the displacement loop below, whose migrations query discovery.
  cloud_.note_seat_change(fleet_, target);
  fallback_.note_fleet_change(fault_sim_.now());

  if (rec_.enabled()) {
    rec_.registry().add(sys_obs(rec_).supernode_failures);
    rec_.trace(obs::EventKind::kSupernodeChurn, static_cast<std::int64_t>(target),
               static_cast<std::int64_t>(current_day_));
  }

  // Displace every session the node was serving. The restore gap charges
  // the stream as dead air, and the victim immediately rates the node with
  // zero continuity (§3.2.2: reputation must decay fast enough that a
  // flapping node drops out of candidate lists on rejoin).
  double worst_restore_ms = 0.0;
  std::uint64_t displaced = 0;
  for (std::size_t idx = 0; idx < players_.size(); ++idx) {
    PlayerState& p = players_[idx];
    if (!p.online || p.serving.kind != ServingKind::kSupernode || p.serving.index != target) {
      continue;
    }
    SupernodeState& sn = fleet_[target];
    CLOUDFOG_REQUIRE(sn.served > 0, "supernode load underflow");
    --sn.served;  // the node is failed, so its accepting() cannot change
    p.serving = ServingRef{};
    rate(p, target, 0.0, current_day_);

    util::Rng mig_rng = rng_.fork("migrate");
    const auto outcome = fog_.migrate(p, fleet_, testbed_.catalog(), current_day_,
                                      cfg_.strategies.reputation, mig_rng);
    if (!outcome.serving.attached()) {
      p.serving = ServingRef{ServingKind::kCloud, p.state_dc};
    }
    if (p.serving.kind == ServingKind::kSupernode) {
      p.rated_supernode_this_cycle = p.serving.index;
    } else if (p.serving.kind == ServingKind::kCloud) {
      fallback_.enter(idx, fault_sim_.now());
      collector_.record_fallback();
      if (rec_.enabled()) {
        rec_.trace(obs::EventKind::kCloudFallback, static_cast<std::int64_t>(p.info.id),
                   static_cast<std::int64_t>(target), outcome.join_latency_ms);
      }
    }
    if (p.session.has_value()) p.session->charge_outage(outcome.join_latency_ms / 1000.0);
    worst_restore_ms = std::max(worst_restore_ms, outcome.join_latency_ms);
    ++displaced;
    collector_.record_migration(outcome.join_latency_ms);
    if (rec_.enabled()) {
      rec_.registry().add(sys_obs(rec_).migrations);
      rec_.registry().observe(sys_obs(rec_).migration_ms, outcome.join_latency_ms);
      rec_.trace(obs::EventKind::kMigration, static_cast<std::int64_t>(p.info.id),
                 p.serving.attached() ? static_cast<std::int64_t>(p.serving.index) : -1,
                 outcome.join_latency_ms);
    }
  }
  if (displaced > 0) {
    collector_.record_interruptions(displaced);
    // MTTR of this fault: every displaced session streams again once the
    // slowest restore finishes.
    collector_.record_mttr(worst_restore_ms);
  }
  return target;
}

void System::on_crash_cleared(const fault::FaultSpec& spec, std::size_t target) {
  (void)spec;
  if (target < fleet_.size()) {
    fleet_[target].failed = false;
    cloud_.note_seat_change(fleet_, target);
  }
  fallback_.note_fleet_change(fault_sim_.now());
}

void System::rate(PlayerState& p, std::size_t sn, double value, int day) {
  p.reputation.add_rating(sn, value, day);
  if (rec_.enabled()) {
    rec_.registry().add(sys_obs(rec_).ratings);
    rec_.trace(obs::EventKind::kRating, static_cast<std::int64_t>(sn), day, value);
  }
}

void System::roll_daily_sessions() {
  // Process players in a random order so "the game most friends are
  // playing" sees the friends already decided, as at real join time.
  std::vector<std::size_t> order(players_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng order_rng = rng_.fork("roll-order");
  std::shuffle(order.begin(), order.end(), order_rng);

  util::Rng roll_rng = rng_.fork("roll");
  std::vector<char> decided(players_.size(), 0);
  for (std::size_t idx : order) {
    PlayerState& p = players_[idx];
    p.today = game::roll_daily_session(testbed_.activity(), p.info.duration_class, roll_rng);
    // "Players tend to play with their friends" (§3.4 / [2]): with even
    // odds, start when a friend who already planned today starts, so
    // friends are online together.
    std::vector<std::size_t> decided_friends;
    for (social::PlayerId f : testbed_.social_graph().friends(idx)) {
      if (decided[f]) decided_friends.push_back(f);
    }
    if (!decided_friends.empty() && roll_rng.chance(0.5)) {
      const std::size_t buddy = decided_friends[static_cast<std::size_t>(roll_rng.uniform_int(
          0, static_cast<std::int64_t>(decided_friends.size()) - 1))];
      p.today.start_subcycle = players_[buddy].today.start_subcycle;
    }
    std::vector<game::GameId> friend_games;
    for (std::size_t f : decided_friends) {
      if (players_[f].today.online_at(p.today.start_subcycle)) {
        friend_games.push_back(players_[f].game);
      }
    }
    p.game = testbed_.activity().choose_game(testbed_.catalog(), friend_games, roll_rng);
    decided[idx] = 1;
  }
}

void System::apply_throttling() {
  util::Rng thr_rng = rng_.fork("throttle-day");
  for (std::size_t i = 0; i < fleet_.size(); ++i) {
    double willingness = 1.0;
    if (throttle80_[i] && thr_rng.chance(cfg_.throttling.throttle_probability)) {
      willingness = 0.8;
    } else if (throttle50_[i] && thr_rng.chance(cfg_.throttling.throttle_probability)) {
      willingness = 0.5;
    }
    fleet_[i].willingness = willingness;
  }
}

void System::begin_cycle(int day) {
  CLOUDFOG_REQUIRE(day >= 1, "days are 1-based");
  if (cfg_.workload == WorkloadMode::kDailySessions) roll_daily_sessions();
  if (cfg_.architecture == Architecture::kCloudFog) apply_throttling();
  if (adversary_ != nullptr) adversary_->begin_cycle(day, fleet_, players_);

  // Weekly social reassignment (§3.4 "runs periodically (e.g., weekly)").
  if (cfg_.strategies.social_assignment && day > 1 &&
      (day - 1) % cfg_.reassign_period_days == 0) {
    measure_server_assignment();
  }
}

void System::attach_player(PlayerState& p, int day) {
  double join_ms = 0.0;
  switch (cfg_.architecture) {
    case Architecture::kCloudDirect: {
      p.serving = ServingRef{ServingKind::kCloud, p.state_dc};
      join_ms = testbed_.latency().rtt_ms(p.info.endpoint,
                                          cloud_.datacenter(p.state_dc).endpoint) +
                cfg_.fog.connect_setup_ms;
      collector_.record_player_join(join_ms);
      break;
    }
    case Architecture::kCdn: {
      // Nearest accepting CDN server within the RTT bound, else the cloud.
      std::size_t best = cdn_.size();
      double best_rtt = cfg_.cdn_max_rtt_ms;
      for (std::size_t i = 0; i < cdn_.size(); ++i) {
        if (!cdn_[i].accepting()) continue;
        const double rtt = testbed_.latency().rtt_ms(p.info.endpoint, cdn_[i].endpoint);
        if (rtt <= best_rtt) {
          best_rtt = rtt;
          best = i;
        }
      }
      if (best < cdn_.size()) {
        ++cdn_[best].served;
        p.serving = ServingRef{ServingKind::kCdn, best};
        join_ms = best_rtt + cfg_.fog.connect_setup_ms;
      } else {
        p.serving = ServingRef{ServingKind::kCloud, p.state_dc};
        join_ms =
            testbed_.latency().rtt_ms(p.info.endpoint, cloud_.datacenter(p.state_dc).endpoint) +
            cfg_.fog.connect_setup_ms;
      }
      collector_.record_player_join(join_ms);
      break;
    }
    case Architecture::kCloudFog: {
      util::Rng sel_rng = rng_.fork("select");
      const auto outcome = fog_.select_supernode(p, fleet_, testbed_.catalog(), day,
                                                 cfg_.strategies.reputation, sel_rng);
      join_ms = outcome.join_latency_ms;
      collector_.record_player_join(join_ms);
      if (p.serving.kind == ServingKind::kSupernode) {
        p.rated_supernode_this_cycle = p.serving.index;
      }
      break;
    }
  }

  if (rec_.enabled()) {
    rec_.registry().add(sys_obs(rec_).player_joins);
    rec_.registry().observe(sys_obs(rec_).join_ms, join_ms);
    rec_.trace(obs::EventKind::kPlayerJoin, static_cast<std::int64_t>(p.info.id),
               p.serving.attached() ? static_cast<std::int64_t>(p.serving.index) : -1, join_ms);
  }

  p.session.emplace(testbed_.catalog(), p.game, cfg_.adapter, rng_.fork("adapter"));
  p.online = true;
  online_[static_cast<std::size_t>(&p - players_.data())] = 1;
}

void System::detach_player(PlayerState& p) {
  if (p.serving.kind == ServingKind::kCdn) {
    auto& edge = cdn_[p.serving.index];
    CLOUDFOG_REQUIRE(edge.served > 0, "CDN load underflow");
    --edge.served;
    p.serving = ServingRef{};
  } else {
    fog_.release(p, fleet_);
  }
  p.session.reset();
  p.online = false;
  const auto idx = static_cast<std::size_t>(&p - players_.data());
  online_[idx] = 0;
  fallback_.exit(idx);

  if (rec_.enabled()) {
    rec_.registry().add(sys_obs(rec_).player_leaves);
    rec_.trace(obs::EventKind::kPlayerLeave, static_cast<std::int64_t>(p.info.id));
  }
}

void System::process_population(int day, int subcycle, bool peak) {
  if (cfg_.workload == WorkloadMode::kDailySessions) {
    for (auto& p : players_) {
      const bool should_be_online = p.today.online_at(subcycle);
      if (should_be_online && !p.online) {
        attach_player(p, day);
      } else if (!should_be_online && p.online) {
        detach_player(p);
      } else if (p.online) {
        retry_cloud_fallback(p, day);
      }
    }
    return;
  }

  // Arrival-rate workload (§4.3.4): Poisson arrivals over the hour at the
  // peak or off-peak rate; departures when the sampled stay runs out.
  for (std::size_t i = 0; i < players_.size(); ++i) {
    PlayerState& p = players_[i];
    if (!p.online) continue;
    if (--remaining_subcycles_[i] <= 0) {
      detach_player(p);
      continue;
    }
    // Fault-layer runs keep the §3.2.2 hourly probing: fallback sessions
    // look for a fog return exactly like the daily workload does.
    // Fault-free arrival runs (Figs. 13–15) do not probe: a player its
    // join left on the cloud stays there for its sampled stay.
    if (injector_ != nullptr) retry_cloud_fallback(p, day);
  }

  const double rate_per_min = arrival_rate_override_.value_or(
      peak ? cfg_.arrivals.peak_per_minute : cfg_.arrivals.offpeak_per_minute);
  util::Rng arr_rng = rng_.fork("arrivals");
  int arrivals = util::sample_poisson(arr_rng, rate_per_min * sim::kMinutesPerSubcycle);

  // Fill from the offline population in a rotating scan.
  util::Rng pick_rng = rng_.fork("arrival-pick");
  std::size_t scan = static_cast<std::size_t>(
      pick_rng.uniform_int(0, static_cast<std::int64_t>(players_.size()) - 1));
  for (std::size_t tried = 0; tried < players_.size() && arrivals > 0; ++tried) {
    const std::size_t idx = scan;
    scan = (scan + 1) % players_.size();
    PlayerState& p = players_[idx];
    if (p.online) continue;
    util::Rng roll_rng = rng_.fork("arrival-roll");
    p.game = game_mix_.empty()
                 ? testbed_.activity().choose_game(testbed_.catalog(), {}, roll_rng)
                 : choose_game_from_mix(roll_rng);
    const double hours =
        testbed_.activity().sample_play_hours(p.info.duration_class, roll_rng);
    remaining_subcycles_[idx] = std::max(1, static_cast<int>(std::ceil(hours)));
    attach_player(p, day);
    --arrivals;
  }
}

game::GameId System::choose_game_from_mix(util::Rng& rng) const {
  // Cumulative draw over the scenario's weights; indices past the weight
  // list (or with non-positive weight) are never chosen.
  const std::size_t games =
      std::min(game_mix_.size(), testbed_.catalog().size());
  double total = 0.0;
  for (std::size_t g = 0; g < games; ++g) total += std::max(0.0, game_mix_[g]);
  CLOUDFOG_REQUIRE(total > 0.0, "game mix has no positive weight");
  double u = rng.next_double() * total;
  for (std::size_t g = 0; g < games; ++g) {
    u -= std::max(0.0, game_mix_[g]);
    if (u < 0.0) return static_cast<game::GameId>(g);
  }
  return static_cast<game::GameId>(games - 1);
}

std::size_t System::force_departures(double fraction) {
  if (fraction <= 0.0) return 0;
  util::Rng dep_rng = rng_.fork("storm-departures");
  std::size_t departed = 0;
  for (std::size_t i = 0; i < players_.size(); ++i) {
    PlayerState& p = players_[i];
    if (!p.online || !dep_rng.chance(fraction)) continue;
    remaining_subcycles_[i] = 0;
    detach_player(p);
    ++departed;
  }
  return departed;
}

std::size_t System::drain_sessions() {
  std::size_t drained = 0;
  for (std::size_t i = 0; i < players_.size(); ++i) {
    PlayerState& p = players_[i];
    if (!p.online) continue;
    remaining_subcycles_[i] = 0;
    detach_player(p);
    ++drained;
  }
  return drained;
}

void System::retry_cloud_fallback(PlayerState& p, int day) {
  // A player streaming from the cloud keeps looking for a supernode
  // (seats free up as others leave); §3.2.2's periodic probing makes the
  // check hourly. Join latency is not re-recorded — this is a background
  // improvement, not a join.
  if (cfg_.architecture != Architecture::kCloudFog) return;
  if (p.serving.kind != ServingKind::kCloud) return;
  const auto idx = static_cast<std::size_t>(&p - players_.data());
  // Hysteresis: a fault-driven fallback session stays on the cloud until
  // its residency and the fleet-stability window both elapse — the hourly
  // retry otherwise bounces it straight back into a churning fleet.
  if (injector_ != nullptr && fallback_.blocked(idx, fault_sim_.now())) return;
  util::Rng retry_rng = rng_.fork("retry");
  const auto outcome = fog_.select_supernode(p, fleet_, testbed_.catalog(), day,
                                             cfg_.strategies.reputation, retry_rng);
  if (outcome.serving.kind == ServingKind::kSupernode) {
    p.rated_supernode_this_cycle = outcome.serving.index;
    if (rec_.enabled()) rec_.registry().add(sys_obs(rec_).cloud_rescues);
    if (fallback_.in_fallback(idx)) {
      fallback_.exit(idx);
      collector_.record_fog_return();
      if (rec_.enabled()) {
        rec_.trace(obs::EventKind::kFogReturn, static_cast<std::int64_t>(p.info.id),
                   static_cast<std::int64_t>(outcome.serving.index));
      }
    }
  }
  // select_supernode re-attaches to the cloud itself on failure.
}

void System::update_cross_server_latency() {
  const double stranger_cross = 1.0 - 1.0 / static_cast<double>(total_servers_);
  const double w_f = cfg_.friend_interaction_weight;
  for (std::size_t i = 0; i < players_.size(); ++i) {
    if (online_[i] == 0) continue;
    int online_friends = 0;
    int cross_friends = 0;
    for (social::PlayerId f : testbed_.social_graph().friends(i)) {
      if (online_[f] == 0) continue;
      ++online_friends;
      if (partition_[f] != partition_[i]) ++cross_friends;
    }
    const double friend_cross =
        online_friends == 0
            ? stranger_cross
            : static_cast<double>(cross_friends) / static_cast<double>(online_friends);
    players_[i].cross_server_ms =
        cfg_.cross_server_penalty_ms * (w_f * friend_cross + (1.0 - w_f) * stranger_cross);
  }
}

void System::maybe_run_provisioning(int day, int subcycle) {
  if (!cfg_.strategies.provisioning || cfg_.architecture != Architecture::kCloudFog) return;

  const auto online = std::count(online_.begin(), online_.end(), std::uint8_t{1});
  window_online_sum_ += static_cast<double>(online);
  ++window_subcycles_;

  const int window = cfg_.provisioning.window_hours;
  const int global_subcycle = (day - 1) * sim::CycleConfig::subcycles_per_cycle + (subcycle - 1);
  if ((global_subcycle + 1) % window != 0) return;

  CLOUDFOG_TIMED_SCOPE(rec_, "provisioning");

  // Window closed: feed the mean online population, refresh supernode
  // popularity ranks, and redeploy for the forecast next window.
  provisioner_.observe_window(window_online_sum_ / std::max(1, window_subcycles_));
  window_online_sum_ = 0.0;
  window_subcycles_ = 0;

  for (auto& sn : fleet_) {
    sn.supported_last_window = sn.served;
  }

  const std::size_t wanted =
      std::max(provisioner_.supernodes_needed(mean_fleet_capacity_), base_deployment_);
  util::Rng deploy_rng = rng_.fork("deploy");
  provisioner_.deploy(fleet_, wanted, deploy_rng);
  for (std::size_t i = 0; i < fleet_.size(); ++i) cloud_.note_seat_change(fleet_, i);
  migrate_players_off_undeployed(day);

  if (rec_.enabled()) {
    std::size_t deployed_count = 0;
    for (const auto& sn : fleet_) {
      if (sn.deployed) ++deployed_count;
    }
    rec_.registry().add(sys_obs(rec_).provisioning_rounds);
    rec_.registry().set(sys_obs(rec_).deployed, static_cast<double>(deployed_count));
    static const obs::NoteId kWantedNote = obs::intern_note("wanted=");
    rec_.trace(obs::EventKind::kProvisioning, day, subcycle,
               static_cast<double>(deployed_count),
               obs::Note{kWantedNote, static_cast<std::int64_t>(wanted)});
  }
}

void System::migrate_players_off_undeployed(int day) {
  for (auto& p : players_) {
    if (!p.online || p.serving.kind != ServingKind::kSupernode) continue;
    SupernodeState& sn = fleet_[p.serving.index];
    if (sn.deployed) continue;
    // The provider withdrew this supernode; its players re-select without
    // restarting the game (silent migration, not a failure).
    fog_.release(p, fleet_);
    util::Rng sel_rng = rng_.fork("reprov-select");
    fog_.select_supernode(p, fleet_, testbed_.catalog(), day, cfg_.strategies.reputation,
                          sel_rng);
    if (p.serving.kind == ServingKind::kSupernode) {
      p.rated_supernode_this_cycle = p.serving.index;
    }
    if (rec_.enabled()) {
      rec_.registry().add(sys_obs(rec_).migrations);
      rec_.trace(obs::EventKind::kMigration, static_cast<std::int64_t>(p.info.id),
                 p.serving.attached() ? static_cast<std::int64_t>(p.serving.index) : -1);
    }
  }
}

SubcycleQos System::run_subcycle(int day, int subcycle, bool warmup, bool peak) {
  CLOUDFOG_REQUIRE(day >= 1, "days are 1-based");
  CLOUDFOG_REQUIRE(subcycle >= 1 && subcycle <= sim::CycleConfig::subcycles_per_cycle,
                   "subcycle out of range");
  if (rec_.enabled()) rec_.set_sim_time(sim::subcycle_start_s(day, subcycle));
  current_day_ = day;
  if (injector_ != nullptr) {
    // Fire every fault scheduled inside this subcycle's hour before the
    // population and QoS passes see the world.
    fault_sim_.run_until(sim::subcycle_start_s(day, subcycle + 1));
  }
  {
    CLOUDFOG_TIMED_SCOPE(rec_, "population");
    process_population(day, subcycle, peak);
  }
  maybe_run_provisioning(day, subcycle);
  {
    CLOUDFOG_TIMED_SCOPE(rec_, "social.cross_server");
    update_cross_server_latency();
  }
  const SubcycleQos qos = qos_.run_subcycle(players_, fleet_, cloud_, cdn_);
  collector_.record_subcycle(qos, warmup);
  if (injector_ != nullptr && !warmup && qos.online_sessions > 0) {
    collector_.record_fallback_residency(static_cast<double>(fallback_.active_count()) /
                                         static_cast<double>(qos.online_sessions));
  }
  if (rec_.enabled()) {
    rec_.registry().set(sys_obs(rec_).online, static_cast<double>(qos.online_sessions));
    rec_.trace(obs::EventKind::kSubcycle, day, subcycle,
               static_cast<double>(qos.online_sessions));
  }
  return qos;
}

void System::end_cycle(int day) {
  CLOUDFOG_REQUIRE(day >= 1, "days are 1-based");
  // Ratings (§4.1): each player rates the supernode that served it with
  // the playback continuity it experienced this cycle.
  for (auto& p : players_) {
    if (p.rated_supernode_this_cycle.has_value() && p.cycle_continuity_samples > 0.0) {
      const double continuity =
          std::clamp(p.cycle_continuity_sum / p.cycle_continuity_samples, 0.0, 1.0);
      rate(p, *p.rated_supernode_this_cycle, continuity, day);
    }
    p.cycle_continuity_sum = 0.0;
    p.cycle_continuity_samples = 0.0;
    p.rated_supernode_this_cycle.reset();
    // Daily-session players leave at day end (each cycle is one day).
    if (cfg_.workload == WorkloadMode::kDailySessions && p.online) detach_player(p);
  }
}

const RunMetrics& System::run(const sim::CycleConfig& cycles) {
  CLOUDFOG_REQUIRE(cycles.total_cycles > 0, "need at least one cycle");
  CLOUDFOG_REQUIRE(cycles.warmup_cycles >= 0 && cycles.warmup_cycles < cycles.total_cycles,
                   "warm-up must leave at least one measured cycle");
  const char* label = arm_label(cfg_);
  if (rec_.enabled()) rec_.begin_run(label);
  for (int day = 1; day <= cycles.total_cycles; ++day) {
    const bool warmup = day <= cycles.warmup_cycles;
    begin_cycle(day);
    for (int sub = 1; sub <= sim::CycleConfig::subcycles_per_cycle; ++sub) {
      run_subcycle(day, sub, warmup, sim::is_peak_subcycle(sub));
    }
    end_cycle(day);
  }
  if (rec_.enabled()) {
    rec_.add_run_summary(
        summarize_run(collector_.metrics(), label, collector_.recorded_subcycles()));
  }
  return collector_.metrics();
}

ServerAssignmentCost System::measure_server_assignment() {
  const ServerAssignmentCost cost = reassign_servers("measure-partition");
  collector_.record_server_assignment(cost.seconds);
  return cost;
}

ServerAssignmentCost System::reassign_servers(std::string_view rng_label) {
  CLOUDFOG_TIMED_SCOPE(rec_, "social.partition");
  // The partitioner's greedy seed walks adjacency lists in order, so it
  // runs on a copy rebuilt from the sorted edge list: the friend order
  // every pinned table was produced with, not the generator's.
  social::SocialGraph graph(players_.size());
  for (const auto& [a, b] : testbed_.social_graph().edges()) graph.add_friendship(a, b);
  const social::CommunityPartitioner partitioner(partitioner_config(cfg_, total_servers_));
  util::Rng part_rng = rng_.fork(rng_label);
  const auto start = std::chrono::steady_clock::now();
  social::PartitionerResult result = partitioner.partition(graph, part_rng);
  const auto stop = std::chrono::steady_clock::now();
  partition_ = std::move(result.partition);
  return {std::chrono::duration<double>(stop - start).count(), result.swap_trials};
}

}  // namespace cloudfog::core

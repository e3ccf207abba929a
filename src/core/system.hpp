// A complete gaming system under evaluation: one of the paper's arms
// (Cloud, CDN/EdgeCloud, CloudFog basic or advanced) driving a shared
// player population through cycles and subcycles.
//
// The four §3 strategies are independent toggles, so any ablation the
// evaluation needs (Figs. 10–15) runs through the same code path:
//   * reputation          — supernode selection order (§3.2)
//   * rate_adaptation     — receiver-driven bitrate control (§3.3)
//   * social_assignment   — community-based server placement (§3.4)
//   * provisioning        — SARIMA-driven supernode deployment (§3.5)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/cloud.hpp"
#include "core/entities.hpp"
#include "core/fog_manager.hpp"
#include "core/metrics.hpp"
#include "core/provisioner.hpp"
#include "core/qos_engine.hpp"
#include "core/testbed.hpp"
#include "fault/fault.hpp"
#include "obs/recorder.hpp"
#include "scenario/adversary.hpp"
#include "sim/cycle_config.hpp"
#include "sim/simulator.hpp"
#include "social/community_partitioner.hpp"
#include "video/rate_adapter.hpp"

namespace cloudfog::core {

enum class Architecture { kCloudDirect, kCdn, kCloudFog };

struct StrategyToggles {
  bool reputation = false;
  bool rate_adaptation = false;
  bool social_assignment = false;
  bool provisioning = false;

  static StrategyToggles none() { return {}; }
  static StrategyToggles all() { return {true, true, true, true}; }
};

/// How the online population evolves.
enum class WorkloadMode {
  kDailySessions,  ///< §4.1 default: every player rolls a daily session
  kArrivalRates,   ///< §4.3.4: Poisson arrivals at peak/off-peak rates
};

struct ArrivalWorkload {
  double offpeak_per_minute = 5.0;
  double peak_per_minute = 30.0;
};

/// §4.1: designated throttler supernodes limit their offered bandwidth.
struct ThrottlingConfig {
  double fraction_throttle_80 = 0.20;  ///< 1/5 of supernodes may run at 80 %
  double fraction_throttle_50 = 0.10;  ///< 1/10 may run at 50 %
  double throttle_probability = 0.5;   ///< chance a designee throttles, per cycle
};

struct SystemConfig {
  Architecture architecture = Architecture::kCloudFog;
  StrategyToggles strategies;
  WorkloadMode workload = WorkloadMode::kDailySessions;
  ArrivalWorkload arrivals;
  FogManagerConfig fog;
  QosEngineConfig qos;
  ProvisionerConfig provisioning;
  ThrottlingConfig throttling;
  /// §3.6 extension: adversarial supernodes that deliberately delay video
  /// (fixed delay, whitewashing, collusion, on-off…).
  scenario::AdversaryConfig adversary;
  video::RateAdapterConfig adapter;  ///< `enabled` is overwritten from strategies

  /// CDN serving bound: beyond this RTT a player falls back to the cloud.
  double cdn_max_rtt_ms = 250.0;
  /// Response-latency cost of one fully cross-server interaction (§3.4).
  double cross_server_penalty_ms = 40.0;
  /// Share of a player's in-game interactions that involve friends (the
  /// rest hit effectively random players).
  double friend_interaction_weight = 0.6;
  /// Social reassignment cadence, in days ("e.g., weekly").
  int reassign_period_days = 7;
  /// h1/h2 — §3.4 notes the repetition count trades clustering quality
  /// against computation; with swap trials scored in place in O(deg),
  /// a generous budget is cheap, and the weekly cadence amortizes it.
  int partitioner_swap_trials = 50000;  ///< h1
  int partitioner_miss_limit = 5000;    ///< h2

  /// Chaos schedule (CloudFog arms only; `faults.enabled` gates everything —
  /// disabled leaves every run bit-identical to a build without the
  /// subsystem). supernode_count / region_count / horizon are filled in by
  /// the System; a zero `faults.seed` derives one from the system seed, and
  /// CLOUDFOG_FAULT_SEED overrides either.
  fault::FaultPlanConfig faults;
  /// Hysteresis for fault-driven cloud fallback (§ DESIGN.md 8.3).
  fault::FallbackConfig fallback;

  std::size_t supernode_count = 600;  ///< fleet size (CloudFog arms)
  /// Supernodes deployed when provisioning is off (0 = entire fleet) —
  /// the fixed pool of the §4.3.4 CloudFog/B arm.
  std::size_t fixed_deployment = 0;
  std::size_t cdn_server_count = 300;  ///< CDN arms

  /// Candidate-discovery data structure (DESIGN.md §10). kLinear is the
  /// reference scan kept only for the equality tests; both produce
  /// identical candidate lists.
  CandidateMode discovery = CandidateMode::kGrid;
};

/// What one §3.4 server-assignment pass cost.
struct ServerAssignmentCost {
  double seconds = 0.0;  ///< the partitioner's wall-clock time
  int swap_trials = 0;   ///< its swap trials (deterministic)
};

class System {
 public:
  /// Every counter, phase, trace event and run summary of this System and
  /// its components goes to `rec`.
  System(const Testbed& testbed, SystemConfig cfg, std::uint64_t seed,
         obs::Recorder& rec = obs::Recorder::global());

  const SystemConfig& config() const { return cfg_; }
  const std::vector<PlayerState>& players() const { return players_; }
  const std::vector<SupernodeState>& fleet() const { return fleet_; }
  const std::vector<CdnServerState>& cdn_servers() const { return cdn_; }
  const Cloud& cloud() const { return cloud_; }
  MetricsCollector& collector() { return collector_; }
  const RunMetrics& metrics() const { return collector_.metrics(); }

  /// Runs the full cycle schedule and returns the collected metrics.
  /// Throws ConfigError for a schedule with no measured cycle (no cycles,
  /// or a warm-up as long as the run).
  const RunMetrics& run(const sim::CycleConfig& cycles);

  /// Manual driving (used by the scenario engine, which pokes the system
  /// between subcycles). Days are 1-based and subcycles lie in
  /// [1, sim::CycleConfig::subcycles_per_cycle]; anything else throws
  /// ConfigError.
  void begin_cycle(int day);
  SubcycleQos run_subcycle(int day, int subcycle, bool warmup, bool peak);
  void end_cycle(int day);

  // --- Scenario-engine hooks (src/scenario). All of them perturb the rng
  // stream only when actually exercised, so a System that never sees a
  // scenario stays byte-identical to one built before this layer existed.

  /// Overrides the arrival-rate workload's per-minute rate for subsequent
  /// subcycles (nullopt restores the configured peak/off-peak rates).
  /// Setting a rate of 0 pauses arrivals entirely.
  void set_arrival_rate_override(std::optional<double> per_minute) {
    arrival_rate_override_ = per_minute;
  }

  /// Mass-churn burst: each online player leaves with probability
  /// `fraction`. Returns the number of departures.
  std::size_t force_departures(double fraction);

  /// Weighted game choice for the arrival-rate workload: weights[g] biases
  /// catalog game g (missing entries weigh 0). Empty restores the activity
  /// model's popularity distribution.
  void set_game_mix(std::vector<double> weights) { game_mix_ = std::move(weights); }

  /// Ends every live session (end-of-run accounting for arrival-rate
  /// workloads, so joins == leaves holds). Returns sessions ended.
  std::size_t drain_sessions();

  /// The adversary driving this run, if any.
  const scenario::AdversaryModel* adversary() const { return adversary_.get(); }

  /// Chaos-run introspection (meaningful only with `faults.enabled`).
  const fault::FaultState& fault_state() const { return fault_state_; }
  const fault::FaultInjector* injector() const { return injector_.get(); }
  const fault::FallbackGovernor& fallback_governor() const { return fallback_; }

  /// Fig. 9: one social server-assignment pass over the current
  /// population. Its swap trials are the table's deterministic work
  /// measure; the partitioner's wall-clock seconds go to RunMetrics, and
  /// the `social.partition` phase times the whole pass.
  ServerAssignmentCost measure_server_assignment();

 private:
  void roll_daily_sessions();
  void apply_throttling();
  game::GameId choose_game_from_mix(util::Rng& rng) const;
  void process_population(int day, int subcycle, bool peak);
  void attach_player(PlayerState& p, int day);
  void retry_cloud_fallback(PlayerState& p, int day);
  /// Records `p`'s rating of supernode `sn` (§3.2.1) and reports it.
  void rate(PlayerState& p, std::size_t sn, double value, int day);
  void detach_player(PlayerState& p);
  void update_cross_server_latency();
  void maybe_run_provisioning(int day, int subcycle);
  /// Re-partitions the friend graph into servers (§3.4) with an rng
  /// forked under `rng_label`, timed as the `social.partition` phase;
  /// returns what the partitioner cost.
  ServerAssignmentCost reassign_servers(std::string_view rng_label);
  void migrate_players_off_undeployed(int day);
  void setup_fault_injection(std::uint64_t seed);
  /// FaultInjector crash hooks: fail the victim (resolving kAnyTarget) and
  /// displace its players; un-fail it on clear.
  std::size_t on_crash(const fault::FaultSpec& spec);
  void on_crash_cleared(const fault::FaultSpec& spec, std::size_t target);

  const Testbed& testbed_;
  obs::Recorder& rec_;
  SystemConfig cfg_;
  util::Rng rng_;
  Cloud cloud_;
  FogManager fog_;
  QosEngine qos_;
  Provisioner provisioner_;
  std::vector<PlayerState> players_;
  /// players_[i].online, densely: the per-subcycle friend and population
  /// counts read it instead of striding through PlayerState. Written only
  /// where PlayerState::online is (attach_player / detach_player).
  std::vector<std::uint8_t> online_;
  std::vector<SupernodeState> fleet_;
  std::vector<CdnServerState> cdn_;
  social::Partition partition_;  ///< player -> global server index
  int total_servers_ = 1;
  std::vector<char> throttle80_;  ///< designated 80 %-throttlers
  std::vector<char> throttle50_;
  MetricsCollector collector_;
  double mean_fleet_capacity_ = 1.0;
  /// Supernodes deployed at construction; dynamic provisioning adds
  /// temporary capacity above this pool and releases back down to it,
  /// never below (§3.5 pre-deploys *extra* supernodes before peaks).
  std::size_t base_deployment_ = 0;

  // Fault-injection state. The fault simulator's clock is sim time in
  // seconds (sim::subcycle_start_s); run_subcycle advances it to each
  // subcycle boundary so scheduled faults fire between QoS evaluations.
  // `fault_rng_` is seeded from the raw system seed (not rng_.fork, which
  // mutates the parent) so the no-fault stream stays bit-identical.
  sim::Simulator fault_sim_;
  fault::FaultState fault_state_;
  std::unique_ptr<fault::FaultInjector> injector_;
  fault::FallbackGovernor fallback_;
  util::Rng fault_rng_;
  int current_day_ = 1;  ///< day seen by the crash hooks for rating decay

  // Adversary (null when none is configured).
  std::unique_ptr<scenario::AdversaryModel> adversary_;

  // Arrival-rate workload state.
  std::vector<int> remaining_subcycles_;  ///< per player; 0 = offline
  std::optional<double> arrival_rate_override_;  ///< scenario load shaping
  std::vector<double> game_mix_;                 ///< scenario workload mix
  // Provisioning window accumulation.
  double window_online_sum_ = 0.0;
  int window_subcycles_ = 0;
};

}  // namespace cloudfog::core

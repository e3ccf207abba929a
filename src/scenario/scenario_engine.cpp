#include "scenario/scenario_engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/recorder.hpp"
#include "sim/cycle_config.hpp"
#include "util/require.hpp"

namespace cloudfog::scenario {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr int kHoursPerDay = sim::CycleConfig::subcycles_per_cycle;

/// One hour of compiled load shaping.
struct LoadPoint {
  double rate_per_minute = 0.0;
  double departure_fraction = 0.0;  ///< burst applied at the hour's start
};

/// Flattens the spec's load phases into an hour-indexed timeline. Empty
/// for the daily-sessions workload (phases don't apply there).
std::vector<LoadPoint> compile_timeline(const ScenarioSpec& spec) {
  if (spec.daily_sessions) return {};
  const int hours = spec.cycles * kHoursPerDay;
  std::vector<LoadPoint> timeline(static_cast<std::size_t>(hours));
  for (int h = 0; h < hours; ++h) {
    double rate = spec.base_arrival_per_minute;
    if (spec.flash_crowd) {
      const FlashCrowdPhase& fc = *spec.flash_crowd;
      const int t = h - fc.start_hour;
      double shape = 0.0;
      if (t >= 0 && t < fc.ramp_hours) {
        shape = static_cast<double>(t + 1) / static_cast<double>(std::max(1, fc.ramp_hours));
      } else if (t >= fc.ramp_hours && t < fc.ramp_hours + fc.plateau_hours) {
        shape = 1.0;
      } else if (t >= fc.ramp_hours + fc.plateau_hours &&
                 t < fc.ramp_hours + fc.plateau_hours + fc.decay_hours) {
        const int t2 = t - fc.ramp_hours - fc.plateau_hours;
        shape = 1.0 - static_cast<double>(t2 + 1) / static_cast<double>(fc.decay_hours + 1);
      }
      rate += fc.peak_per_minute * shape;
    }
    if (spec.diurnal) {
      const DiurnalPhase& d = *spec.diurnal;
      constexpr double kDay = kHoursPerDay;
      for (int r = 0; r < d.regions; ++r) {
        // Each region's evening wave peaks at its local hour 12 past the
        // 06:00 trough; regions lag each other by the timezone stagger.
        double local =
            std::fmod(static_cast<double>(h) - static_cast<double>(r) * d.stagger_hours, kDay);
        if (local < 0.0) local += kDay;
        const double wave = std::sin(2.0 * kPi * (local - 6.0) / kDay);
        if (wave > 0.0) rate += d.amplitude_per_minute * wave;
      }
    }
    timeline[static_cast<std::size_t>(h)].rate_per_minute = rate;
  }
  if (spec.churn_storm) {
    const ChurnStormPhase& cs = *spec.churn_storm;
    if (cs.start_hour >= 0 && cs.start_hour < hours) {
      timeline[static_cast<std::size_t>(cs.start_hour)].departure_fraction =
          cs.departure_fraction;
      if (cs.pause_arrivals) {
        const int end = std::min(hours, cs.start_hour + cs.duration_hours);
        for (int h = cs.start_hour; h < end; ++h) {
          timeline[static_cast<std::size_t>(h)].rate_per_minute = 0.0;
        }
      }
    }
  }
  return timeline;
}

core::TestbedConfig testbed_config(const ScenarioSpec& spec) {
  return spec.profile == core::TestbedProfile::kPeerSim
             ? core::TestbedConfig::peersim(spec.players)
             : core::TestbedConfig::planetlab(spec.players);
}

/// Translates the spec into the SystemConfig of the arm under test.
core::SystemConfig system_config(const ScenarioSpec& spec, const core::Testbed& testbed) {
  core::SystemConfig cfg;
  cfg.architecture = core::Architecture::kCloudFog;
  cfg.strategies.reputation = spec.reputation;
  cfg.strategies.rate_adaptation = spec.rate_adaptation;
  cfg.strategies.social_assignment = spec.social_assignment;
  cfg.strategies.provisioning = spec.provisioning;
  cfg.supernode_count = std::min(spec.supernodes, testbed.supernode_capable().size());
  if (!spec.daily_sessions) {
    cfg.workload = core::WorkloadMode::kArrivalRates;
    cfg.arrivals =
        core::ArrivalWorkload{spec.base_arrival_per_minute, spec.base_arrival_per_minute};
  }
  if (spec.selection_deadline_ms > 0.0) {
    cfg.fog.selection.deadline_budget_ms = spec.selection_deadline_ms;
  }
  cfg.adversary = spec.adversary;

  if (spec.faults_per_hour > 0.0 || spec.outage) {
    cfg.faults.enabled = true;
    cfg.faults.faults_per_hour = spec.faults_per_hour;
    cfg.faults.horizon_s = sim::subcycle_start_s(spec.cycles + 1, 1);
  }
  if (spec.outage) {
    const OutagePhase& out = *spec.outage;
    // Geo-select the victims: the fleet the System will instantiate, in
    // fleet order, so spec indices line up with supernode ids.
    const auto fleet = testbed.make_supernode_fleet(cfg.supernode_count);
    std::vector<fault::NodePosition> positions;
    positions.reserve(fleet.size());
    for (const auto& sn : fleet) {
      positions.push_back(
          fault::NodePosition{sn.endpoint.position.x_km, sn.endpoint.position.y_km});
    }
    // Background chaos during a regional-outage scenario is regional too.
    cfg.faults.positions = positions;
    cfg.faults.target_box = out.box;

    // Hours count from the run's first subcycle.
    const double at_s = sim::subcycle_start_s(1, out.start_hour + 1) + 1.0;
    const double duration_s =
        static_cast<double>(out.duration_hours) * sim::CycleConfig::subcycle_seconds;
    for (fault::FaultSpec spec_out : fault::regional_outage_specs(
             positions, out.box, at_s, duration_s, out.crash_fraction, out.loss_fraction,
             out.delay_ms, spec.seed)) {
      cfg.faults.extra_specs.push_back(spec_out);
    }
    if (out.partition) {
      // Partition the datacenter region closest to the dark box from the
      // one farthest away — the ISP's backbone link went with it.
      const auto dcs = testbed.make_datacenters();
      if (dcs.size() >= 2) {
        const double cx = out.box.center_x_km();
        const double cy = out.box.center_y_km();
        std::size_t nearest = 0;
        std::size_t farthest = 0;
        double best = 0.0;
        double worst = 0.0;
        for (std::size_t i = 0; i < dcs.size(); ++i) {
          const double dx = dcs[i].endpoint.position.x_km - cx;
          const double dy = dcs[i].endpoint.position.y_km - cy;
          const double d2 = dx * dx + dy * dy;
          if (i == 0 || d2 < best) {
            best = d2;
            nearest = i;
          }
          if (i == 0 || d2 > worst) {
            worst = d2;
            farthest = i;
          }
        }
        if (nearest != farthest) {
          fault::FaultSpec part;
          part.kind = fault::FaultKind::kNetworkPartition;
          part.at_s = at_s;
          part.duration_s = duration_s;
          part.target = nearest;
          part.target_b = farthest;
          cfg.faults.extra_specs.push_back(part);
        }
      }
    }
  }
  return cfg;
}

double clamp_finite(double v) {
  if (std::isnan(v)) return 0.0;
  return std::clamp(v, -1e12, 1e12);
}

}  // namespace

double ScenarioOutcome::metric(std::string_view metric_name) const {
  for (const ScenarioMetric& m : metrics) {
    if (m.name == metric_name) return m.value;
  }
  return 0.0;
}

ScenarioEngine::ScenarioEngine(ScenarioSpec spec, ScenarioRunOptions opts)
    : spec_(std::move(spec)) {
  if (opts.smoke) {
    spec_.players = std::min(spec_.players, opts.smoke_max_players);
    if (spec_.cycles > opts.smoke_max_cycles) {
      // Clamp proportionally: phases anchored past the new horizon would
      // silently never fire, so refuse those specs instead of mis-running.
      spec_.cycles = opts.smoke_max_cycles;
    }
    spec_.warmup = std::min(spec_.warmup, spec_.cycles - 1);
    const int horizon_hours = spec_.cycles * kHoursPerDay;
    CLOUDFOG_REQUIRE(!spec_.outage || spec_.outage->start_hour < horizon_hours,
                     "smoke clamp pushed the outage outside the horizon");
    CLOUDFOG_REQUIRE(!spec_.churn_storm || spec_.churn_storm->start_hour < horizon_hours,
                     "smoke clamp pushed the churn storm outside the horizon");
  }
  if (opts.reputation_override) spec_.reputation = *opts.reputation_override;
  if (opts.seed_override) {
    spec_.seed = *opts.seed_override;
    spec_.system_seed = 0;
  }
}

ScenarioOutcome ScenarioEngine::run(const core::Testbed* shared_testbed, obs::Recorder& rec) {
  std::optional<core::Testbed> local;
  if (shared_testbed == nullptr) {
    local.emplace(testbed_config(spec_), spec_.seed);
  } else {
    CLOUDFOG_REQUIRE(shared_testbed->players().size() == spec_.players,
                     "shared testbed population does not match the scenario");
  }
  const core::Testbed& testbed = shared_testbed != nullptr ? *shared_testbed : *local;

  const std::uint64_t sys_seed = spec_.system_seed != 0 ? spec_.system_seed : spec_.seed;
  core::System sys(testbed, system_config(spec_, testbed), sys_seed, rec);
  if (!spec_.game_mix.empty()) sys.set_game_mix(spec_.game_mix);

  const std::vector<LoadPoint> timeline = compile_timeline(spec_);

  const std::string label = "scenario." + spec_.name;
  if (rec.enabled()) rec.begin_run(label);

  // Per-subcycle samples of the adversary's share of fog-served sessions
  // (the session-weighted view a victim population actually experiences).
  std::uint64_t fog_samples = 0;
  std::uint64_t adversary_samples = 0;

  for (int day = 1; day <= spec_.cycles; ++day) {
    const bool warmup = day <= spec_.warmup;
    sys.begin_cycle(day);
    for (int sub = 1; sub <= kHoursPerDay; ++sub) {
      const std::size_t hour = static_cast<std::size_t>((day - 1) * kHoursPerDay + (sub - 1));
      if (!timeline.empty()) {
        const LoadPoint& lp = timeline[hour];
        sys.set_arrival_rate_override(lp.rate_per_minute);
        if (lp.departure_fraction > 0.0) sys.force_departures(lp.departure_fraction);
      }
      sys.run_subcycle(day, sub, warmup, sim::is_peak_subcycle(sub));
      if (!warmup && sys.adversary() != nullptr) {
        for (const core::PlayerState& p : sys.players()) {
          if (!p.online || p.serving.kind != core::ServingKind::kSupernode) continue;
          ++fog_samples;
          if (sys.adversary()->is_member(p.serving.index)) ++adversary_samples;
        }
      }
    }
    sys.end_cycle(day);
  }
  if (!timeline.empty()) sys.drain_sessions();  // arrival accounting: joins == leaves

  const core::RunMetrics& m = sys.metrics();

  // Reputation false positives: honest supernodes the (post-run) ratings
  // condemn — a mean private score below 0.5 across every player that
  // rated them, despite never sabotaging anybody.
  double reputation_fp_pct = 0.0;
  {
    std::vector<double> score_sum(sys.fleet().size(), 0.0);
    std::vector<std::uint64_t> score_count(sys.fleet().size(), 0);
    for (const core::PlayerState& p : sys.players()) {
      for (reputation::SupernodeId sn : p.reputation.rated_supernodes()) {
        if (sn >= score_sum.size()) continue;
        score_sum[sn] += p.reputation.score(sn, spec_.cycles);
        ++score_count[sn];
      }
    }
    std::uint64_t honest_rated = 0;
    std::uint64_t false_positives = 0;
    for (std::size_t i = 0; i < sys.fleet().size(); ++i) {
      if (sys.adversary() != nullptr && sys.adversary()->is_member(i)) continue;
      if (score_count[i] == 0) continue;
      ++honest_rated;
      if (score_sum[i] / static_cast<double>(score_count[i]) < 0.5) ++false_positives;
    }
    if (honest_rated > 0) {
      reputation_fp_pct =
          100.0 * static_cast<double>(false_positives) / static_cast<double>(honest_rated);
    }
  }

  ScenarioOutcome outcome;
  outcome.name = spec_.name;
  outcome.label = label;
  outcome.metrics = {
      {"continuity", m.continuity.mean()},
      {"latency_ms", m.response_latency_ms.mean()},
      {"satisfied_pct", m.satisfied_fraction.mean() * 100.0},
      {"mos", m.mos.mean()},
      {"cloud_egress_mbps", m.cloud_egress_mbps.mean()},
      {"fog_served_pct", m.fog_served_fraction.mean() * 100.0},
      {"online_mean", m.online_sessions.mean()},
      {"cloud_fallback_pct", m.fallback_residency.mean() * 100.0},
      {"fallbacks", static_cast<double>(m.fallbacks)},
      {"fog_returns", static_cast<double>(m.fog_returns)},
      {"migrations", static_cast<double>(m.migration_latency_ms.count())},
      {"migration_storm", static_cast<double>(m.migration_storm_peak)},
      {"mttr_s", m.mttr_ms.empty() ? 0.0 : m.mttr_ms.mean() / 1000.0},
      {"interrupted", static_cast<double>(m.sessions_interrupted)},
      {"joins", static_cast<double>(m.player_join_latency_ms.count())},
      {"adversary_served_pct",
       fog_samples == 0 ? 0.0
                        : 100.0 * static_cast<double>(adversary_samples) /
                              static_cast<double>(fog_samples)},
      {"reputation_fp_pct", reputation_fp_pct},
  };
  outcome.envelope = spec_.envelope.check(outcome.metrics);
  outcome.passed = outcome.envelope.passed;

  if (rec.enabled()) {
    obs::RunSummary summary =
        core::summarize_run(m, label, sys.collector().recorded_subcycles());
    auto push_stat = [&summary](std::string name, double value) {
      obs::StatSummary st;
      st.name = std::move(name);
      st.count = 1;
      st.mean = clamp_finite(value);
      summary.stats.push_back(std::move(st));
    };
    // Envelope verdict + per-bound headroom, so the run store trends how
    // close each scenario sails to its envelope over time.
    push_stat("envelope.pass", outcome.passed ? 1.0 : 0.0);
    push_stat("envelope.min_margin", outcome.envelope.min_margin);
    for (const BoundCheck& check : outcome.envelope.checks) {
      push_stat("envelope.margin." + check.bound.metric, check.margin);
    }
    push_stat("scenario.adversary_served_pct", outcome.metric("adversary_served_pct"));
    push_stat("scenario.reputation_fp_pct", reputation_fp_pct);
    rec.add_run_summary(std::move(summary));
  }
  return outcome;
}

util::Table envelope_table(const ScenarioOutcome& outcome) {
  util::Table table("Scenario " + outcome.name + " — acceptance envelope");
  table.set_header({"metric", "value", "min", "max", "margin", "verdict"});
  for (const BoundCheck& check : outcome.envelope.checks) {
    table.add_row({check.bound.metric, util::format_double(check.value, 3),
                   check.bound.min ? util::format_double(*check.bound.min, 3) : "-",
                   check.bound.max ? util::format_double(*check.bound.max, 3) : "-",
                   util::format_double(clamp_finite(check.margin), 3),
                   check.passed ? "pass" : "FAIL"});
  }
  return table;
}

util::Table chaos_sweep_table(core::TestbedProfile profile,
                              const std::vector<double>& faults_per_hour,
                              const core::ExperimentScale& scale, obs::Recorder& rec) {
  util::Table table("Chaos — QoS and recovery under a mixed fault schedule");
  table.set_header({"faults/hour", "continuity", "latency (ms)", "satisfied (%)",
                    "migrations", "mttr (s)", "fallback res (%)", "interrupted"});
  const core::TestbedConfig tb_cfg = profile == core::TestbedProfile::kPeerSim
                                         ? core::TestbedConfig::peersim()
                                         : core::TestbedConfig::planetlab();
  const core::Testbed testbed(tb_cfg, scale.seed);
  const auto outcomes = core::map_cells(
      faults_per_hour.size(), scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        return ScenarioEngine(chaos_scenario(profile, faults_per_hour[i], scale))
            .run(&testbed, cell_rec);
      });
  for (std::size_t row = 0; row < faults_per_hour.size(); ++row) {
    const ScenarioOutcome& out = outcomes[row];
    table.add_row({util::format_double(faults_per_hour[row], 2),
                   util::format_double(out.metric("continuity"), 3),
                   util::format_double(out.metric("latency_ms"), 1),
                   util::format_double(out.metric("satisfied_pct"), 1),
                   util::format_double(out.metric("migrations"), 0),
                   util::format_double(out.metric("mttr_s"), 3),
                   util::format_double(out.metric("cloud_fallback_pct"), 2),
                   util::format_double(out.metric("interrupted"), 0)});
  }
  return table;
}

}  // namespace cloudfog::scenario

#include "core/experiment.hpp"

#include <string>

#include "economics/cost_model.hpp"
#include "util/require.hpp"

namespace cloudfog::core {

namespace {

TestbedConfig profile_config(TestbedProfile profile, std::size_t players) {
  return profile == TestbedProfile::kPeerSim ? TestbedConfig::peersim(players)
                                             : TestbedConfig::planetlab(players);
}

TestbedConfig profile_config(TestbedProfile profile) {
  return profile == TestbedProfile::kPeerSim ? TestbedConfig::peersim()
                                             : TestbedConfig::planetlab();
}

std::string ms_label(double ms) { return util::format_double(ms, 0) + " ms"; }

}  // namespace

sim::CycleConfig to_cycle_config(const ExperimentScale& scale) {
  CLOUDFOG_REQUIRE(scale.warmup < scale.cycles, "warm-up must leave measured cycles");
  sim::CycleConfig cfg;
  cfg.total_cycles = scale.cycles;
  cfg.warmup_cycles = scale.warmup;
  return cfg;
}

double coverage_of(const Testbed& testbed, const std::vector<net::Endpoint>& points,
                   double req_rtt_ms) {
  if (points.empty()) return 0.0;
  std::size_t covered = 0;
  for (const PlayerInfo& p : testbed.players()) {
    for (const net::Endpoint& e : points) {
      if (testbed.latency().rtt_ms(p.endpoint, e) <= req_rtt_ms) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(testbed.players().size());
}

util::Table coverage_vs_datacenters(TestbedProfile profile,
                                    const std::vector<std::size_t>& dc_counts,
                                    const std::vector<double>& latency_reqs_ms,
                                    std::uint64_t seed) {
  const Testbed testbed(profile_config(profile), seed);
  util::Table table(profile == TestbedProfile::kPeerSim
                        ? "Fig 4(a) — user coverage vs # datacenters (PeerSim)"
                        : "Fig 5(a) — user coverage vs # datacenters (PlanetLab)");
  std::vector<std::string> header{"# datacenters"};
  for (double req : latency_reqs_ms) header.push_back(ms_label(req));
  table.set_header(std::move(header));

  for (std::size_t dcs : dc_counts) {
    std::vector<net::Endpoint> points;
    for (const auto& site : testbed.plane().datacenter_sites(dcs)) {
      points.push_back(net::make_infrastructure_endpoint(site));
    }
    std::vector<std::string> row{std::to_string(dcs)};
    for (double req : latency_reqs_ms) {
      row.push_back(util::format_double(coverage_of(testbed, points, req), 3));
    }
    table.add_row(std::move(row));
  }
  return table;
}

util::Table coverage_vs_supernodes(TestbedProfile profile,
                                   const std::vector<std::size_t>& sn_counts,
                                   const std::vector<double>& latency_reqs_ms,
                                   std::uint64_t seed) {
  const Testbed testbed(profile_config(profile), seed);
  util::Table table(profile == TestbedProfile::kPeerSim
                        ? "Fig 4(b) — user coverage vs # supernodes (PeerSim)"
                        : "Fig 5(b) — user coverage vs # supernodes (PlanetLab)");
  std::vector<std::string> header{"# supernodes"};
  for (double req : latency_reqs_ms) header.push_back(ms_label(req));
  table.set_header(std::move(header));

  // Baseline datacenters (5 / 2) always serve; supernodes add reach.
  std::vector<net::Endpoint> dc_points;
  for (const auto& site :
       testbed.plane().datacenter_sites(testbed.config().datacenter_count)) {
    dc_points.push_back(net::make_infrastructure_endpoint(site));
  }
  const std::size_t max_sns = testbed.supernode_capable().size();
  const auto fleet = testbed.make_supernode_fleet(max_sns);

  for (std::size_t count : sn_counts) {
    std::vector<net::Endpoint> points = dc_points;
    for (std::size_t i = 0; i < std::min(count, fleet.size()); ++i) {
      points.push_back(fleet[i].endpoint);
    }
    std::vector<std::string> row{std::to_string(count)};
    for (double req : latency_reqs_ms) {
      row.push_back(util::format_double(coverage_of(testbed, points, req), 3));
    }
    table.add_row(std::move(row));
  }
  return table;
}

PopulationSweepResult population_sweep(TestbedProfile profile,
                                       const std::vector<std::size_t>& player_counts,
                                       const ExperimentScale& scale) {
  const char* suffix = profile == TestbedProfile::kPeerSim ? " (PeerSim)" : " (PlanetLab)";
  const std::string cdn_small_name =
      profile == TestbedProfile::kPeerSim ? "CDN-45" : "CDN-8";

  PopulationSweepResult out{
      util::Table(std::string("Fig 6 — cloud bandwidth (Mbps) vs # players") + suffix),
      util::Table(std::string("Fig 7 — avg response latency (ms) vs # players") + suffix),
      util::Table(std::string("Fig 8 — playback continuity vs # players") + suffix)};

  out.bandwidth.set_header({"# players", "Cloud", cdn_small_name, "CDN", "CloudFog"});
  out.latency.set_header(
      {"# players", "Cloud", cdn_small_name, "CDN", "CloudFog/B", "CloudFog/A"});
  out.continuity.set_header(
      {"# players", "Cloud", cdn_small_name, "CDN", "CloudFog/B", "CloudFog/A"});

  const auto cycles = to_cycle_config(scale);
  for (std::size_t n : player_counts) {
    const Testbed testbed(profile_config(profile, n), scale.seed + n);

    System cloud_sys = make_cloud_system(testbed, scale.seed + 1);
    System cdn_small = make_small_cdn_system(testbed, scale.seed + 2);
    System cdn_sys = make_cdn_system(testbed, scale.seed + 3);
    System fog_b = make_cloudfog_basic(testbed, scale.seed + 4);
    System fog_a = make_cloudfog_advanced(testbed, scale.seed + 5);

    const RunMetrics& m_cloud = cloud_sys.run(cycles);
    const RunMetrics& m_cdn_small = cdn_small.run(cycles);
    const RunMetrics& m_cdn = cdn_sys.run(cycles);
    const RunMetrics& m_b = fog_b.run(cycles);
    const RunMetrics& m_a = fog_a.run(cycles);

    out.bandwidth.add_row({std::to_string(n),
                           util::format_double(m_cloud.cloud_egress_mbps.mean(), 1),
                           util::format_double(m_cdn_small.cloud_egress_mbps.mean(), 1),
                           util::format_double(m_cdn.cloud_egress_mbps.mean(), 1),
                           util::format_double(m_b.cloud_egress_mbps.mean(), 1)});
    out.latency.add_row({std::to_string(n),
                         util::format_double(m_cloud.response_latency_ms.mean(), 1),
                         util::format_double(m_cdn_small.response_latency_ms.mean(), 1),
                         util::format_double(m_cdn.response_latency_ms.mean(), 1),
                         util::format_double(m_b.response_latency_ms.mean(), 1),
                         util::format_double(m_a.response_latency_ms.mean(), 1)});
    out.continuity.add_row({std::to_string(n),
                            util::format_double(m_cloud.continuity.mean(), 3),
                            util::format_double(m_cdn_small.continuity.mean(), 3),
                            util::format_double(m_cdn.continuity.mean(), 3),
                            util::format_double(m_b.continuity.mean(), 3),
                            util::format_double(m_a.continuity.mean(), 3)});
  }
  return out;
}

namespace {

/// Shared Fig. 9 row computation for one configured CloudFog system.
std::vector<std::string> setup_latency_row(const Testbed& testbed, std::size_t supernodes,
                                           std::size_t failures, const std::string& x_label,
                                           const ExperimentScale& scale) {
  SystemConfig cfg = cloudfog_advanced_config(testbed, supernodes);
  System sys(testbed, cfg, scale.seed + supernodes);

  const auto cycles = to_cycle_config(scale);
  for (int day = 1; day <= cycles.total_cycles; ++day) {
    sys.begin_cycle(day);
    for (int sub = 1; sub <= cycles.subcycles_per_cycle; ++sub) {
      const bool peak = sub >= cycles.peak_start_subcycle && sub <= cycles.peak_end_subcycle;
      sys.run_subcycle(day, sub, day <= cycles.warmup_cycles, peak);
      // Inject the failure burst once, during the peak of the last day.
      if (day == cycles.total_cycles && sub == cycles.peak_start_subcycle) {
        sys.inject_supernode_failures(failures, day);
      }
    }
    sys.end_cycle(day);
  }

  // Server assignment cost over the full population (wall clock).
  const double assignment_s = sys.measure_server_assignment_seconds();

  // Supernode joins: one RTT to the cloud each.
  util::RunningStats sn_join;
  for (double ms : sys.supernode_join_latencies()) sn_join.add(ms);

  const RunMetrics& m = sys.metrics();
  const double player_join_s =
      m.player_join_latency_ms.empty() ? 0.0 : m.player_join_latency_ms.mean() / 1000.0;
  const double migration_s =
      m.migration_latency_ms.empty() ? 0.0 : m.migration_latency_ms.mean() / 1000.0;

  return {x_label, util::format_double(sn_join.mean() / 1000.0, 3),
          util::format_double(player_join_s, 3), util::format_double(assignment_s, 3),
          util::format_double(migration_s, 3)};
}

}  // namespace

util::Table setup_latency_vs_players(TestbedProfile profile,
                                     const std::vector<std::size_t>& player_counts,
                                     const ExperimentScale& scale) {
  util::Table table("Fig 9(a) — setup latencies (s) vs # players");
  table.set_header({"# players", "supernode join", "player join", "server assignment",
                    "migration"});
  for (std::size_t n : player_counts) {
    TestbedConfig cfg = profile_config(profile, n);
    // §4.1: "set the numbers of supernodes to 6/100 of players".
    cfg.supernode_capable_fraction = 0.10;
    const Testbed testbed(cfg, scale.seed + n);
    const std::size_t supernodes =
        std::min(testbed.supernode_capable().size(), n * 6 / 100);
    const std::size_t failures = profile == TestbedProfile::kPeerSim ? 100 : 10;
    table.add_row(
        setup_latency_row(testbed, supernodes, failures, std::to_string(n), scale));
  }
  return table;
}

util::Table setup_latency_vs_supernodes(TestbedProfile profile,
                                        const std::vector<std::size_t>& sn_counts,
                                        const ExperimentScale& scale) {
  util::Table table("Fig 9(b) — setup latencies (s) vs # supernodes");
  table.set_header({"# supernodes", "supernode join", "player join", "server assignment",
                    "migration"});
  const Testbed testbed(profile_config(profile), scale.seed);
  for (std::size_t count : sn_counts) {
    const std::size_t supernodes = std::min(count, testbed.supernode_capable().size());
    const std::size_t failures = profile == TestbedProfile::kPeerSim ? 100 : 10;
    table.add_row(
        setup_latency_row(testbed, supernodes, failures, std::to_string(count), scale));
  }
  return table;
}

util::Table satisfaction_sweep(TestbedProfile profile, SatisfactionStrategy strategy,
                               const std::vector<int>& supernode_capacities,
                               const ExperimentScale& scale) {
  const bool reputation = strategy == SatisfactionStrategy::kReputation;
  util::Table table(reputation
                        ? "Fig 10 — % satisfied players, reputation-based selection"
                        : "Fig 11 — % satisfied players, encoding-rate adaptation");
  const std::string on_name = reputation ? "CloudFog-reputation" : "CloudFog-adapt";
  table.set_header({"supernode capacity", on_name, "CloudFog/B"});

  const auto cycles = to_cycle_config(scale);
  for (int capacity : supernode_capacities) {
    TestbedConfig tb_cfg = profile_config(profile);
    tb_cfg.forced_supernode_capacity = capacity;
    const Testbed testbed(tb_cfg, scale.seed + static_cast<std::uint64_t>(capacity));

    // The sweep varies "the number of supporting players of a supernode":
    // fewer, fuller supernodes as capacity grows, so each supernode really
    // carries ≈ `capacity` players (its hardware/uplink stays what the
    // machine naturally provides — that is the stress being studied).
    const std::size_t peak_online = testbed.players().size() / 2;
    const std::size_t fleet = std::clamp<std::size_t>(
        peak_online / static_cast<std::size_t>(capacity), 20,
        testbed.supernode_capable().size());

    SystemConfig on_cfg = cloudfog_basic_config(testbed, fleet);
    if (reputation) {
      on_cfg.strategies.reputation = true;
    } else {
      on_cfg.strategies.rate_adaptation = true;
    }
    System on_sys(testbed, on_cfg, scale.seed + 11);
    System off_sys(testbed, cloudfog_basic_config(testbed, fleet), scale.seed + 12);

    const RunMetrics& m_on = on_sys.run(cycles);
    const RunMetrics& m_off = off_sys.run(cycles);
    table.add_row({std::to_string(capacity),
                   util::format_double(m_on.satisfied_fraction.mean() * 100.0, 1),
                   util::format_double(m_off.satisfied_fraction.mean() * 100.0, 1)});
  }
  return table;
}

util::Table server_assignment_sweep(TestbedProfile profile,
                                    const std::vector<int>& servers_per_dc,
                                    const ExperimentScale& scale) {
  util::Table table("Fig 12 — response latency split by server communication");
  table.set_header({"servers per DC", "w/ server lat", "w/ other lat", "w/o server lat",
                    "w/o other lat"});
  const auto cycles = to_cycle_config(scale);
  for (int servers : servers_per_dc) {
    TestbedConfig tb_cfg = profile_config(profile);
    tb_cfg.servers_per_datacenter = servers;
    const Testbed testbed(tb_cfg, scale.seed + static_cast<std::uint64_t>(servers));

    SystemConfig with_cfg =
        cloudfog_basic_config(testbed, default_supernode_count(testbed));
    with_cfg.strategies.social_assignment = true;
    System with_sys(testbed, with_cfg, scale.seed + 21);
    System without_sys(testbed,
                       cloudfog_basic_config(testbed, default_supernode_count(testbed)),
                       scale.seed + 22);

    const RunMetrics& m_with = with_sys.run(cycles);
    const RunMetrics& m_without = without_sys.run(cycles);
    const double with_server = m_with.server_latency_ms.mean();
    const double with_other = m_with.response_latency_ms.mean() - with_server;
    const double wo_server = m_without.server_latency_ms.mean();
    const double wo_other = m_without.response_latency_ms.mean() - wo_server;
    table.add_row({std::to_string(servers), util::format_double(with_server, 1),
                   util::format_double(with_other, 1), util::format_double(wo_server, 1),
                   util::format_double(wo_other, 1)});
  }
  return table;
}

ProvisioningSweepResult provisioning_sweep(TestbedProfile profile,
                                           const std::vector<double>& peak_rates_per_min,
                                           const ExperimentScale& scale) {
  const char* suffix = profile == TestbedProfile::kPeerSim ? " (PeerSim)" : " (PlanetLab)";
  ProvisioningSweepResult out{
      util::Table(std::string("Fig 13 — cloud bandwidth (Mbps) vs peak arrival rate") +
                  suffix),
      util::Table(std::string("Fig 14 — avg response latency (ms) vs peak arrival rate") +
                  suffix),
      util::Table(std::string("Fig 15 — continuity vs peak arrival rate") + suffix)};
  for (auto* t : {&out.bandwidth, &out.latency, &out.continuity}) {
    t->set_header({"peak players/min", "CloudFog/B", "CloudFog-provision"});
  }

  const Testbed testbed(profile_config(profile), scale.seed);
  const std::size_t fleet_size = default_supernode_count(testbed);
  // CloudFog/B reserves a constant pool (§4.3.4: 400 of 600 supernodes in
  // simulation; scaled to half the fleet on PlanetLab).
  const std::size_t fixed_pool =
      profile == TestbedProfile::kPeerSim ? 400 : std::max<std::size_t>(1, fleet_size / 2);
  const double offpeak =
      profile == TestbedProfile::kPeerSim ? 5.0 : 1.0;  // players per minute

  const auto cycles = to_cycle_config(scale);
  for (double peak : peak_rates_per_min) {
    SystemConfig base = cloudfog_basic_config(testbed, fleet_size);
    base.workload = WorkloadMode::kArrivalRates;
    base.arrivals = ArrivalWorkload{offpeak, peak};
    base.fixed_deployment = fixed_pool;
    System fixed_sys(testbed, base, scale.seed + 31);

    SystemConfig prov = base;
    prov.strategies.provisioning = true;
    prov.fixed_deployment = fixed_pool;  // starting pool; provisioning rescales
    System prov_sys(testbed, prov, scale.seed + 32);

    const RunMetrics& m_fixed = fixed_sys.run(cycles);
    const RunMetrics& m_prov = prov_sys.run(cycles);

    const std::string x = util::format_double(peak, 0);
    out.bandwidth.add_row({x, util::format_double(m_fixed.cloud_egress_mbps.mean(), 1),
                           util::format_double(m_prov.cloud_egress_mbps.mean(), 1)});
    out.latency.add_row({x, util::format_double(m_fixed.response_latency_ms.mean(), 1),
                         util::format_double(m_prov.response_latency_ms.mean(), 1)});
    out.continuity.add_row({x, util::format_double(m_fixed.continuity.mean(), 3),
                            util::format_double(m_prov.continuity.mean(), 3)});
  }
  return out;
}

util::Table failure_rate_sweep(TestbedProfile profile,
                               const std::vector<double>& failure_fractions,
                               const ExperimentScale& scale) {
  util::Table table("Resilience — QoS under per-cycle supernode failures");
  table.set_header({"failure fraction/cycle", "continuity", "satisfied (%)",
                    "avg migration (s)", "migrations"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  const std::size_t fleet = default_supernode_count(testbed);

  // Reference arm with the fault subsystem not even constructed. The
  // 0.0-fraction row must reproduce it exactly — arming an empty plan may
  // not perturb the simulation.
  const double unfaulted_continuity = [&] {
    System sys(testbed, cloudfog_advanced_config(testbed, fleet), scale.seed + 61);
    return sys.run(cycles).continuity.mean();
  }();

  for (double fraction : failure_fractions) {
    SystemConfig cfg = cloudfog_advanced_config(testbed, fleet);
    cfg.faults.enabled = true;
    // The legacy churn schedule as a fault plan: a crash burst right after
    // the first peak subcycle of every cycle (when it hurts the most),
    // every victim rebooted by the next day. kAnyTarget victims resolve to
    // serving supernodes at fire time.
    const auto failures_per_cycle =
        static_cast<std::size_t>(fraction * static_cast<double>(fleet));
    const double day_s = static_cast<double>(cycles.subcycles_per_cycle) * 3600.0;
    for (int day = 1; day <= cycles.total_cycles; ++day) {
      const double burst_s = static_cast<double>(day - 1) * day_s +
                             static_cast<double>(cycles.peak_start_subcycle) * 3600.0 + 1.0;
      const double reboot_s = static_cast<double>(day) * day_s + 0.5;
      for (std::size_t i = 0; i < failures_per_cycle; ++i) {
        fault::FaultSpec spec;
        spec.kind = fault::FaultKind::kSupernodeCrash;
        spec.at_s = burst_s + static_cast<double>(i) * 1e-3;
        spec.duration_s = reboot_s - spec.at_s;
        cfg.faults.extra_specs.push_back(spec);
      }
    }
    System sys(testbed, cfg, scale.seed + 61);
    const RunMetrics& m = sys.run(cycles);
    if (fraction == 0.0) {
      CLOUDFOG_REQUIRE(m.continuity.mean() == unfaulted_continuity,
                       "armed-but-empty fault plan perturbed the run");
    }
    const double migration_s =
        m.migration_latency_ms.empty() ? 0.0 : m.migration_latency_ms.mean() / 1000.0;
    table.add_row({util::format_double(fraction, 2),
                   util::format_double(m.continuity.mean(), 3),
                   util::format_double(m.satisfied_fraction.mean() * 100.0, 1),
                   util::format_double(migration_s, 3),
                   std::to_string(m.migration_latency_ms.count())});
  }
  return table;
}

util::Table candidate_count_ablation(TestbedProfile profile,
                                     const std::vector<std::size_t>& candidate_counts,
                                     const ExperimentScale& scale) {
  util::Table table("Ablation — cloud candidate-list size k (§3.2.1)");
  table.set_header({"k", "fog served (%)", "continuity", "avg join (ms)"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  for (std::size_t k : candidate_counts) {
    SystemConfig cfg = cloudfog_basic_config(testbed, default_supernode_count(testbed));
    cfg.fog.candidate_count = k;
    System sys(testbed, cfg, scale.seed + 71);
    const RunMetrics& m = sys.run(cycles);
    table.add_row({std::to_string(k),
                   util::format_double(m.fog_served_fraction.mean() * 100.0, 1),
                   util::format_double(m.continuity.mean(), 3),
                   util::format_double(m.player_join_latency_ms.mean(), 0)});
  }
  return table;
}

util::Table epsilon_ablation(TestbedProfile profile, const std::vector<double>& epsilons,
                             double peak_rate_per_min, const ExperimentScale& scale) {
  util::Table table("Ablation — Eq. 15 over-provisioning factor ε");
  table.set_header({"epsilon", "cloud egress (Mbps)", "continuity", "fog served (%)"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const std::size_t fleet = default_supernode_count(testbed);
  const auto cycles = to_cycle_config(scale);
  for (double eps : epsilons) {
    SystemConfig cfg = cloudfog_basic_config(testbed, fleet);
    cfg.workload = WorkloadMode::kArrivalRates;
    cfg.arrivals = ArrivalWorkload{5.0, peak_rate_per_min};
    cfg.strategies.provisioning = true;
    // A small base pool, so the provisioner's sizing rule does the work.
    cfg.fixed_deployment = std::max<std::size_t>(1, fleet / 10);
    cfg.provisioning.epsilon = eps;
    System sys(testbed, cfg, scale.seed + 51);
    const RunMetrics& m = sys.run(cycles);
    table.add_row({util::format_double(eps, 2),
                   util::format_double(m.cloud_egress_mbps.mean(), 1),
                   util::format_double(m.continuity.mean(), 3),
                   util::format_double(m.fog_served_fraction.mean() * 100.0, 1)});
  }
  return table;
}

util::Table malicious_supernode_sweep(TestbedProfile profile,
                                      const std::vector<double>& malicious_fractions,
                                      const ExperimentScale& scale) {
  util::Table table("Extension — % satisfied players under malicious supernodes");
  table.set_header({"malicious fraction", "with reputation", "without reputation"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  for (double fraction : malicious_fractions) {
    SystemConfig with_cfg =
        cloudfog_basic_config(testbed, default_supernode_count(testbed));
    // Fixed-delay adversary at the default 80 ms hold-back.
    with_cfg.adversary.kind = scenario::AdversaryKind::kFixedDelay;
    with_cfg.adversary.fraction = fraction;
    with_cfg.strategies.reputation = true;
    SystemConfig without_cfg = with_cfg;
    without_cfg.strategies.reputation = false;
    System with_sys(testbed, with_cfg, scale.seed + 41);
    System without_sys(testbed, without_cfg, scale.seed + 42);
    table.add_row({util::format_double(fraction, 2),
                   util::format_double(with_sys.run(cycles).satisfied_fraction.mean() * 100, 1),
                   util::format_double(
                       without_sys.run(cycles).satisfied_fraction.mean() * 100, 1)});
  }
  return table;
}

util::Table supernode_economics(const std::vector<double>& hours_per_day) {
  const economics::CostModel model;
  util::Table table("Fig 16(a) — supernode rewards, costs and profits (USD/day)");
  table.set_header({"hours/day", "rewards", "costs", "profits"});
  for (double h : hours_per_day) {
    table.add_row({util::format_double(h, 0), util::format_double(model.reward_usd(h), 2),
                   util::format_double(model.running_cost_usd(h), 2),
                   util::format_double(model.contributor_profit_usd(h), 2)});
  }
  return table;
}

util::Table provider_savings(const std::vector<double>& renting_hours) {
  const economics::CostModel model;
  util::Table table("Fig 16(b) — EC2 renting fee vs supernode reward (USD)");
  table.set_header({"hours", "renting fee", "rewards to SNs", "savings"});
  for (double h : renting_hours) {
    table.add_row({util::format_double(h, 0),
                   util::format_double(model.ec2_renting_fee_usd(h), 2),
                   util::format_double(model.reward_usd(h), 2),
                   util::format_double(model.provider_saving_vs_ec2_usd(h), 2)});
  }
  return table;
}

}  // namespace cloudfog::core

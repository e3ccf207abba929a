#include "core/experiment.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "economics/cost_model.hpp"
#include "util/annotations.hpp"
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

/// Appends `count` wildcard supernode crashes to `faults`, 1 ms apart,
/// starting 1 s after the first peak subcycle of `day` ends (when a burst
/// hurts the most). Each victim is picked at fire time, a serving supernode
/// while one is left, and reboots at `reboot_s`, or stays down for the rest
/// of the run if unset.
void add_peak_crash_burst(fault::FaultPlanConfig& faults, int day, std::size_t count,
                          std::optional<double> reboot_s) {
  const double burst_s =
      sim::subcycle_start_s(day, sim::CycleConfig::peak_start_subcycle + 1) + 1.0;
  for (std::size_t k = 0; k < count; ++k) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kSupernodeCrash;
    spec.at_s = burst_s + static_cast<double>(k) * 1e-3;
    spec.duration_s = reboot_s.has_value() ? *reboot_s - spec.at_s : 0.0;
    faults.extra_specs.push_back(spec);
  }
}

}  // namespace

sim::CycleConfig to_cycle_config(const ExperimentScale& scale) {
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

namespace {

/// What a sweep table prints of one run: a cell keeps this, not its System.
struct RunMeans {
  double egress_mbps = 0.0;
  double latency_ms = 0.0;
  double server_latency_ms = 0.0;
  double continuity = 0.0;
  double satisfied = 0.0;
  double fog_served = 0.0;
  double join_ms = 0.0;
  double migration_ms = 0.0;
  std::size_t migrations = 0;
};

RunMeans means_of(const RunMetrics& m) {
  return {m.cloud_egress_mbps.mean(),
          m.response_latency_ms.mean(),
          m.server_latency_ms.mean(),
          m.continuity.mean(),
          m.satisfied_fraction.mean(),
          m.fog_served_fraction.mean(),
          m.player_join_latency_ms.mean(),
          m.migration_latency_ms.mean(),
          m.migration_latency_ms.count()};
}

RunMeans run_means(const Testbed& testbed, const SystemConfig& cfg, std::uint64_t seed,
                   const sim::CycleConfig& cycles, obs::Recorder& rec) {
  System sys(testbed, cfg, seed, rec);
  return means_of(sys.run(cycles));
}

/// The testbeds of a sweep whose rows each run several cells (arms) on one
/// world. The first cell of a row to start builds the row's testbed and
/// the last to finish frees it, so a row's arms share one build, and only
/// the rows in flight hold a testbed. Cells of a row may run concurrently:
/// a Testbed is immutable once built.
class RowTestbeds {
 public:
  using Build = std::function<std::unique_ptr<const Testbed>(std::size_t row)>;

  RowTestbeds(std::size_t rows, std::size_t cells_per_row, Build build)
      : rows_(rows), build_(std::move(build)) {
    for (Row& r : rows_) {
      const util::MutexLock lock(r.mu);
      r.pending = cells_per_row;
    }
  }

  /// Runs `f(testbed)` as one cell of `row`.
  template <typename F>
  auto with(std::size_t row, F&& f) {
    Row& r = rows_[row];
    const Testbed* testbed = nullptr;
    {
      const util::MutexLock lock(r.mu);
      if (!r.testbed) r.testbed = build_(row);
      testbed = r.testbed.get();
    }
    const CellDone done{r};
    return f(*testbed);
  }

 private:
  struct Row {
    util::Mutex mu;
    std::unique_ptr<const Testbed> testbed CF_GUARDED_BY(mu);
    std::size_t pending CF_GUARDED_BY(mu) = 0;
  };
  /// Counts a cell out of its row when it returns or throws.
  struct CellDone {
    Row& r;
    ~CellDone() {
      const util::MutexLock lock(r.mu);
      if (--r.pending == 0) r.testbed.reset();
    }
  };

  std::vector<Row> rows_;
  Build build_;
};

}  // namespace

void run_cells(std::size_t count, int jobs, obs::Recorder& rec, const SweepCell& cell) {
  const obs::TraceBuffer& trace = rec.trace_buffer();
  if (trace.has_sink() || trace.retention() != obs::TraceRetention::kFull) {
    for (std::size_t i = 0; i < count; ++i) cell(i, rec);
    return;
  }
  const std::size_t wanted =
      jobs > 0 ? static_cast<std::size_t>(jobs) : std::thread::hardware_concurrency();
  const std::size_t workers = std::clamp<std::size_t>(wanted, 1, std::max<std::size_t>(count, 1));

  std::vector<std::unique_ptr<obs::Recorder>> children(count);
  std::vector<std::exception_ptr> errors(count);
  // Cells are claimed from the last one down: sweeps list their rows by
  // growing size, so the costliest cells start first and the pool's tail
  // is short. Which worker runs a cell never affects its result.
  std::atomic<std::size_t> claimed{0};
  std::atomic<std::size_t> first_failed{count};
  const auto work = [&] {
    for (std::size_t k = claimed++; k < count; k = claimed++) {
      const std::size_t i = count - 1 - k;
      if (i > first_failed.load()) continue;  // a lower cell already failed
      try {
        auto child = std::make_unique<obs::Recorder>(0);
        child->set_enabled(rec.enabled());
        cell(i, *child);
        children[i] = std::move(child);
      } catch (...) {
        errors[i] = std::current_exception();
        std::size_t seen = first_failed.load();
        while (i < seen && !first_failed.compare_exchange_weak(seen, i)) {
        }
      }
    }
  };
  {
    // jthreads join on every exit path, a failed thread launch included.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work);
    work();
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
    rec.merge_from(*children[i]);
  }
}

PopulationSweepResult population_sweep(TestbedProfile profile,
                                       const std::vector<std::size_t>& player_counts,
                                       const ExperimentScale& scale, obs::Recorder& rec) {
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

  // Cloud, CDN-small, CDN, CloudFog/B, CloudFog/A; arm a runs on seed + 1 + a.
  using MakeArm = System (*)(const Testbed&, std::uint64_t, obs::Recorder&);
  constexpr std::array<MakeArm, 5> kArms{make_cloud_system, make_small_cdn_system,
                                         make_cdn_system, make_cloudfog_basic,
                                         make_cloudfog_advanced};
  const auto cycles = to_cycle_config(scale);
  RowTestbeds testbeds(player_counts.size(), kArms.size(), [&](std::size_t row) {
    const std::size_t n = player_counts[row];
    return std::make_unique<const Testbed>(profile_config(profile, n), scale.seed + n);
  });
  const auto means = map_cells(
      player_counts.size() * kArms.size(), scale.jobs, rec,
      [&](std::size_t i, obs::Recorder& cell_rec) {
        const std::size_t arm = i % kArms.size();
        return testbeds.with(i / kArms.size(), [&](const Testbed& testbed) {
          System sys = kArms[arm](testbed, scale.seed + 1 + arm, cell_rec);
          return means_of(sys.run(cycles));
        });
      });

  for (std::size_t row = 0; row < player_counts.size(); ++row) {
    const RunMeans* m = &means[row * kArms.size()];
    const std::string n = std::to_string(player_counts[row]);
    out.bandwidth.add_row({n, util::format_double(m[0].egress_mbps, 1),
                           util::format_double(m[1].egress_mbps, 1),
                           util::format_double(m[2].egress_mbps, 1),
                           util::format_double(m[3].egress_mbps, 1)});
    std::vector<std::string> latency{n};
    std::vector<std::string> continuity{n};
    for (std::size_t arm = 0; arm < kArms.size(); ++arm) {
      latency.push_back(util::format_double(m[arm].latency_ms, 1));
      continuity.push_back(util::format_double(m[arm].continuity, 3));
    }
    out.latency.add_row(std::move(latency));
    out.continuity.add_row(std::move(continuity));
  }
  return out;
}

namespace {

/// Shared Fig. 9 row computation for one configured CloudFog system.
std::vector<std::string> setup_latency_row(const Testbed& testbed, std::size_t supernodes,
                                           std::size_t failures, const std::string& x_label,
                                           const ExperimentScale& scale, obs::Recorder& rec) {
  const auto cycles = to_cycle_config(scale);
  SystemConfig cfg = cloudfog_advanced_config(testbed, supernodes);
  // The failure burst: once, during the peak of the last day.
  cfg.faults.enabled = true;
  add_peak_crash_burst(cfg.faults, cycles.total_cycles, failures, std::nullopt);
  System sys(testbed, cfg, scale.seed + supernodes, rec);
  sys.run(cycles);

  // Server assignment cost over the full population, in swap trials: a
  // work measure that, unlike its wall time, is the same on every run.
  const ServerAssignmentCost assignment = sys.measure_server_assignment();

  const RunMetrics& m = sys.metrics();
  return {x_label, util::format_double(m.supernode_join_latency_ms.mean() / 1000.0, 3),
          util::format_double(m.player_join_latency_ms.mean() / 1000.0, 3),
          std::to_string(assignment.swap_trials),
          util::format_double(m.migration_latency_ms.mean() / 1000.0, 3)};
}

util::Table setup_latency_table(std::vector<std::vector<std::string>> rows,
                                const std::string& title, const std::string& x_name) {
  util::Table table(title);
  table.set_header({x_name, "supernode join", "player join", "server assignment (swap trials)",
                    "migration"});
  for (auto& row : rows) table.add_row(std::move(row));
  return table;
}

}  // namespace

util::Table setup_latency_vs_players(TestbedProfile profile,
                                     const std::vector<std::size_t>& player_counts,
                                     const ExperimentScale& scale, obs::Recorder& rec) {
  auto rows = map_cells(
      player_counts.size(), scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        const std::size_t n = player_counts[i];
        TestbedConfig cfg = profile_config(profile, n);
        // §4.1: "set the numbers of supernodes to 6/100 of players".
        cfg.supernode_capable_fraction = 0.10;
        const Testbed testbed(cfg, scale.seed + n);
        const std::size_t supernodes =
            std::min(testbed.supernode_capable().size(), n * 6 / 100);
        const std::size_t failures = profile == TestbedProfile::kPeerSim ? 100 : 10;
        return setup_latency_row(testbed, supernodes, failures, std::to_string(n), scale,
                                 cell_rec);
      });
  return setup_latency_table(std::move(rows), "Fig 9(a) — setup latencies (s) vs # players",
                             "# players");
}

util::Table setup_latency_vs_supernodes(TestbedProfile profile,
                                        const std::vector<std::size_t>& sn_counts,
                                        const ExperimentScale& scale, obs::Recorder& rec) {
  const Testbed testbed(profile_config(profile), scale.seed);
  auto rows = map_cells(
      sn_counts.size(), scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        const std::size_t supernodes = std::min(sn_counts[i], testbed.supernode_capable().size());
        const std::size_t failures = profile == TestbedProfile::kPeerSim ? 100 : 10;
        return setup_latency_row(testbed, supernodes, failures, std::to_string(sn_counts[i]),
                                 scale, cell_rec);
      });
  return setup_latency_table(std::move(rows),
                             "Fig 9(b) — setup latencies (s) vs # supernodes", "# supernodes");
}

util::Table satisfaction_sweep(TestbedProfile profile, SatisfactionStrategy strategy,
                               const std::vector<int>& supernode_capacities,
                               const ExperimentScale& scale, obs::Recorder& rec) {
  const bool reputation = strategy == SatisfactionStrategy::kReputation;
  util::Table table(reputation
                        ? "Fig 10 — % satisfied players, reputation-based selection"
                        : "Fig 11 — % satisfied players, encoding-rate adaptation");
  const std::string on_name = reputation ? "CloudFog-reputation" : "CloudFog-adapt";
  table.set_header({"supernode capacity", on_name, "CloudFog/B"});

  // Cells: (capacity, strategy on/off).
  const auto cycles = to_cycle_config(scale);
  RowTestbeds testbeds(supernode_capacities.size(), 2, [&](std::size_t row) {
    const int capacity = supernode_capacities[row];
    TestbedConfig tb_cfg = profile_config(profile);
    tb_cfg.forced_supernode_capacity = capacity;
    return std::make_unique<const Testbed>(tb_cfg,
                                           scale.seed + static_cast<std::uint64_t>(capacity));
  });
  const auto means = map_cells(
      supernode_capacities.size() * 2, scale.jobs, rec,
      [&](std::size_t i, obs::Recorder& cell_rec) {
        return testbeds.with(i / 2, [&](const Testbed& testbed) {
          const int capacity = supernode_capacities[i / 2];
          const bool on = i % 2 == 0;

          // The sweep varies "the number of supporting players of a
          // supernode": fewer, fuller supernodes as capacity grows, so each
          // supernode really carries ≈ `capacity` players (its hardware/uplink
          // stays what the machine naturally provides — that is the stress
          // being studied).
          const std::size_t peak_online = testbed.players().size() / 2;
          const std::size_t fleet = std::clamp<std::size_t>(
              peak_online / static_cast<std::size_t>(capacity), 20,
              testbed.supernode_capable().size());

          SystemConfig cfg = cloudfog_basic_config(testbed, fleet);
          if (on) {
            if (reputation) {
              cfg.strategies.reputation = true;
            } else {
              cfg.strategies.rate_adaptation = true;
            }
          }
          return run_means(testbed, cfg, scale.seed + (on ? 11 : 12), cycles, cell_rec);
        });
      });
  for (std::size_t row = 0; row < supernode_capacities.size(); ++row) {
    table.add_row({std::to_string(supernode_capacities[row]),
                   util::format_double(means[2 * row].satisfied * 100.0, 1),
                   util::format_double(means[2 * row + 1].satisfied * 100.0, 1)});
  }
  return table;
}

util::Table server_assignment_sweep(TestbedProfile profile,
                                    const std::vector<int>& servers_per_dc,
                                    const ExperimentScale& scale, obs::Recorder& rec) {
  util::Table table("Fig 12 — response latency split by server communication");
  table.set_header({"servers per DC", "w/ server lat", "w/ other lat", "w/o server lat",
                    "w/o other lat"});
  // Cells: (servers per DC, social assignment on/off).
  const auto cycles = to_cycle_config(scale);
  RowTestbeds testbeds(servers_per_dc.size(), 2, [&](std::size_t row) {
    const int servers = servers_per_dc[row];
    TestbedConfig tb_cfg = profile_config(profile);
    tb_cfg.servers_per_datacenter = servers;
    return std::make_unique<const Testbed>(tb_cfg,
                                           scale.seed + static_cast<std::uint64_t>(servers));
  });
  const auto means = map_cells(
      servers_per_dc.size() * 2, scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        const bool with = i % 2 == 0;
        return testbeds.with(i / 2, [&](const Testbed& testbed) {
          SystemConfig cfg = cloudfog_basic_config(testbed, default_supernode_count(testbed));
          cfg.strategies.social_assignment = with;
          return run_means(testbed, cfg, scale.seed + (with ? 21 : 22), cycles, cell_rec);
        });
      });
  for (std::size_t row = 0; row < servers_per_dc.size(); ++row) {
    const RunMeans& with = means[2 * row];
    const RunMeans& without = means[2 * row + 1];
    table.add_row({std::to_string(servers_per_dc[row]),
                   util::format_double(with.server_latency_ms, 1),
                   util::format_double(with.latency_ms - with.server_latency_ms, 1),
                   util::format_double(without.server_latency_ms, 1),
                   util::format_double(without.latency_ms - without.server_latency_ms, 1)});
  }
  return table;
}

ProvisioningSweepResult provisioning_sweep(TestbedProfile profile,
                                           const std::vector<double>& peak_rates_per_min,
                                           const ExperimentScale& scale, obs::Recorder& rec) {
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

  // Cells: (peak rate, fixed pool / provisioning).
  const auto cycles = to_cycle_config(scale);
  const auto means = map_cells(
      peak_rates_per_min.size() * 2, scale.jobs, rec,
      [&](std::size_t i, obs::Recorder& cell_rec) {
        const bool provisioning = i % 2 == 1;
        SystemConfig cfg = cloudfog_basic_config(testbed, fleet_size);
        cfg.workload = WorkloadMode::kArrivalRates;
        cfg.arrivals = ArrivalWorkload{offpeak, peak_rates_per_min[i / 2]};
        // The fixed pool is also provisioning's starting pool; it rescales.
        cfg.fixed_deployment = fixed_pool;
        cfg.strategies.provisioning = provisioning;
        return run_means(testbed, cfg, scale.seed + (provisioning ? 32 : 31), cycles, cell_rec);
      });
  for (std::size_t row = 0; row < peak_rates_per_min.size(); ++row) {
    const RunMeans& fixed = means[2 * row];
    const RunMeans& prov = means[2 * row + 1];
    const std::string x = util::format_double(peak_rates_per_min[row], 0);
    out.bandwidth.add_row({x, util::format_double(fixed.egress_mbps, 1),
                           util::format_double(prov.egress_mbps, 1)});
    out.latency.add_row({x, util::format_double(fixed.latency_ms, 1),
                         util::format_double(prov.latency_ms, 1)});
    out.continuity.add_row({x, util::format_double(fixed.continuity, 3),
                            util::format_double(prov.continuity, 3)});
  }
  return out;
}

util::Table failure_rate_sweep(TestbedProfile profile,
                               const std::vector<double>& failure_fractions,
                               const ExperimentScale& scale, obs::Recorder& rec) {
  util::Table table("Resilience — QoS under per-cycle supernode failures");
  table.set_header({"failure fraction/cycle", "continuity", "satisfied (%)",
                    "avg migration (s)", "migrations"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  const std::size_t fleet = default_supernode_count(testbed);

  // Cell 0 is a reference arm with the fault subsystem not even
  // constructed; cell 1 + k runs failure fraction k. The 0.0-fraction row
  // must reproduce the reference exactly — arming an empty plan may not
  // perturb the simulation.
  const auto means = map_cells(
      failure_fractions.size() + 1, scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        SystemConfig cfg = cloudfog_advanced_config(testbed, fleet);
        if (i > 0) {
          cfg.faults.enabled = true;
          // A crash burst in the peak of every cycle, every victim
          // rebooted by the next day.
          const auto failures_per_cycle =
              static_cast<std::size_t>(failure_fractions[i - 1] * static_cast<double>(fleet));
          for (int day = 1; day <= cycles.total_cycles; ++day) {
            add_peak_crash_burst(cfg.faults, day, failures_per_cycle,
                                 sim::subcycle_start_s(day + 1, 1) + 0.5);
          }
        }
        return run_means(testbed, cfg, scale.seed + 61, cycles, cell_rec);
      });

  for (std::size_t row = 0; row < failure_fractions.size(); ++row) {
    const RunMeans& m = means[row + 1];
    if (failure_fractions[row] == 0.0) {
      CLOUDFOG_REQUIRE(m.continuity == means[0].continuity,
                       "armed-but-empty fault plan perturbed the run");
    }
    table.add_row({util::format_double(failure_fractions[row], 2),
                   util::format_double(m.continuity, 3),
                   util::format_double(m.satisfied * 100.0, 1),
                   util::format_double(m.migration_ms / 1000.0, 3),
                   std::to_string(m.migrations)});
  }
  return table;
}

util::Table candidate_count_ablation(TestbedProfile profile,
                                     const std::vector<std::size_t>& candidate_counts,
                                     const ExperimentScale& scale, obs::Recorder& rec) {
  util::Table table("Ablation — cloud candidate-list size k (§3.2.1)");
  table.set_header({"k", "fog served (%)", "continuity", "avg join (ms)"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  const auto means = map_cells(
      candidate_counts.size(), scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        SystemConfig cfg = cloudfog_basic_config(testbed, default_supernode_count(testbed));
        cfg.fog.candidate_count = candidate_counts[i];
        return run_means(testbed, cfg, scale.seed + 71, cycles, cell_rec);
      });
  for (std::size_t row = 0; row < candidate_counts.size(); ++row) {
    const RunMeans& m = means[row];
    table.add_row({std::to_string(candidate_counts[row]),
                   util::format_double(m.fog_served * 100.0, 1),
                   util::format_double(m.continuity, 3), util::format_double(m.join_ms, 0)});
  }
  return table;
}

util::Table epsilon_ablation(TestbedProfile profile, const std::vector<double>& epsilons,
                             double peak_rate_per_min, const ExperimentScale& scale,
                             obs::Recorder& rec) {
  util::Table table("Ablation — Eq. 15 over-provisioning factor ε");
  table.set_header({"epsilon", "cloud egress (Mbps)", "continuity", "fog served (%)"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const std::size_t fleet = default_supernode_count(testbed);
  const auto cycles = to_cycle_config(scale);
  const auto means = map_cells(
      epsilons.size(), scale.jobs, rec, [&](std::size_t i, obs::Recorder& cell_rec) {
        SystemConfig cfg = cloudfog_basic_config(testbed, fleet);
        cfg.workload = WorkloadMode::kArrivalRates;
        cfg.arrivals = ArrivalWorkload{5.0, peak_rate_per_min};
        cfg.strategies.provisioning = true;
        // A small base pool, so the provisioner's sizing rule does the work.
        cfg.fixed_deployment = std::max<std::size_t>(1, fleet / 10);
        cfg.provisioning.epsilon = epsilons[i];
        return run_means(testbed, cfg, scale.seed + 51, cycles, cell_rec);
      });
  for (std::size_t row = 0; row < epsilons.size(); ++row) {
    const RunMeans& m = means[row];
    table.add_row({util::format_double(epsilons[row], 2), util::format_double(m.egress_mbps, 1),
                   util::format_double(m.continuity, 3),
                   util::format_double(m.fog_served * 100.0, 1)});
  }
  return table;
}

util::Table malicious_supernode_sweep(TestbedProfile profile,
                                      const std::vector<double>& malicious_fractions,
                                      const ExperimentScale& scale, obs::Recorder& rec) {
  util::Table table("Extension — % satisfied players under malicious supernodes");
  table.set_header({"malicious fraction", "with reputation", "without reputation"});
  const Testbed testbed(profile_config(profile), scale.seed);
  const auto cycles = to_cycle_config(scale);
  // Cells: (fraction, reputation on/off).
  const auto means = map_cells(
      malicious_fractions.size() * 2, scale.jobs, rec,
      [&](std::size_t i, obs::Recorder& cell_rec) {
        const bool with = i % 2 == 0;
        SystemConfig cfg = cloudfog_basic_config(testbed, default_supernode_count(testbed));
        // Fixed-delay adversary at the default 80 ms hold-back.
        cfg.adversary.kind = scenario::AdversaryKind::kFixedDelay;
        cfg.adversary.fraction = malicious_fractions[i / 2];
        cfg.strategies.reputation = with;
        return run_means(testbed, cfg, scale.seed + (with ? 41 : 42), cycles, cell_rec);
      });
  for (std::size_t row = 0; row < malicious_fractions.size(); ++row) {
    table.add_row({util::format_double(malicious_fractions[row], 2),
                   util::format_double(means[2 * row].satisfied * 100, 1),
                   util::format_double(means[2 * row + 1].satisfied * 100, 1)});
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

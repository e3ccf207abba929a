// cloudfog_figs: regenerates the paper's evaluation tables (§4, Figs. 4–16)
// and the extension/ablation sweeps from one catalogue.
//
//   cloudfog_figs                         # every figure, catalogue order
//   cloudfog_figs fig7 --quick            # one figure at smoke scale
//   cloudfog_figs fig13 fig15 --paper     # several, at the paper's scale
//
// Figure names are positional; with none, the whole catalogue runs. Tables
// print in catalogue order whatever order the names come in. Each figure is
// produced by a sweep family, and each family runs at most once per
// invocation: Figs. 6/7/8 print three fields of one population sweep pair,
// Figs. 13/14/15 three fields of one provisioning sweep pair. A figure runs
// at its own default scale unless --quick or --paper overrides every
// figure; --seed and --jobs apply to all. Every flag is parsed by
// bench_common.hpp; an unknown flag or figure name exits 2 before anything
// runs.
#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/provisioner.hpp"
#include "economics/contributor_market.hpp"
#include "economics/cost_model.hpp"
#include "economics/incentives.hpp"
#include "forecast/baselines.hpp"
#include "game/quality_ladder.hpp"
#include "game/workload.hpp"
#include "scenario/scenario_engine.hpp"

namespace {

using namespace cloudfog;
using core::ExperimentScale;
using core::TestbedProfile;
using Tables = std::vector<util::Table>;

// ---- Sweep families: every table one run produces, grids included ---------

// Table 2 — the video parameter ladder the Fig. 11 adapter walks.
util::Table quality_ladder_table() {
  util::Table ladder_table("Table 2 — video parameters for different quality levels");
  ladder_table.set_header(
      {"quality level", "resolution", "bitrate (kbps)", "latency req (ms)", "tolerance"});
  const auto ladder = game::QualityLadder::paper_default();
  for (int level = ladder.max_level(); level >= ladder.min_level(); --level) {
    const auto& q = ladder.at_level(level);
    ladder_table.add_row({std::to_string(q.level),
                          std::to_string(q.width) + "x" + std::to_string(q.height),
                          util::format_double(q.bitrate_kbps, 0),
                          util::format_double(q.latency_requirement_ms, 0),
                          util::format_double(q.latency_tolerance, 1)});
  }
  return ladder_table;
}

// Fig. 16 and the §4.4 analysis: supernode contributor economics (rewards /
// electricity costs / profits) and provider savings versus renting Amazon
// EC2 GPU instances.
Tables economics_tables(const ExperimentScale& /*scale*/) {
  Tables tables{core::supernode_economics({4, 8, 12, 16, 20, 24}),
                core::provider_savings({100, 200, 300, 400, 500, 600, 700, 800})};

  // §4.4 headline numbers.
  const economics::CostModel model;
  util::Table summary("§4.4 — headline economics");
  summary.set_header({"quantity", "value"});
  summary.add_row({"hourly electricity cost of one supernode (USD)",
                   util::format_double(model.running_cost_usd(1.0), 4)});
  summary.add_row({"annual reward bill, 300 supernodes @ 24 h (USD)",
                   util::format_double(model.annual_fleet_reward_usd(300, 24.0), 0)});
  summary.add_row({"medium datacenter build cost (USD)",
                   util::format_double(model.config().datacenter_build_usd, 0)});
  tables.push_back(std::move(summary));
  return tables;
}

// Extension: the §3.1.1 incentive loop in motion. The paper argues that a
// per-unit bandwidth reward c_s recruits idle desktops into the fog. This
// simulates the contributor market — heterogeneous machines with private
// profit thresholds joining and leaving by Eq. 1 — and reports the
// equilibrium fleet and covered demand at each reward rate, plus the
// provider's net saving (Eq. 3) so the sweet spot is visible: too little
// reward recruits nobody; too much erodes the saving.
Tables contributor_market(const ExperimentScale& scale) {
  util::Rng rng(scale.seed);
  const auto population = economics::sample_contributor_population(500, rng);
  const double demand = 3000.0;  // fog bandwidth demand (units)

  util::Table table("Extension — contributor market equilibrium vs reward rate");
  table.set_header({"reward c_s", "active fleet", "fleet capacity", "covered demand (%)",
                    "provider saving C_g"});
  for (double reward : {0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2}) {
    economics::ContributorMarketConfig cfg;
    cfg.reward_per_unit = reward;
    economics::ContributorMarket market(population, cfg, util::Rng(scale.seed + 1));
    const auto eq = market.run_to_equilibrium(demand);

    economics::ProviderEconomics econ;
    econ.reward_per_unit = reward;
    econ.streaming_rate = 1.0;  // demand already in bandwidth units
    std::vector<economics::SupernodeContribution> fleet;
    for (const auto& c : market.candidates()) {
      if (c.active) fleet.push_back({c.upload_capacity, eq.mean_utilization, c.running_cost});
    }
    const double saving = economics::provider_saving(
        econ, static_cast<std::size_t>(eq.served_demand), eq.active, fleet);

    table.add_row({util::format_double(reward, 2), std::to_string(eq.active),
                   util::format_double(eq.fleet_capacity, 0),
                   util::format_double(eq.served_demand / demand * 100.0, 1),
                   util::format_double(saving, 0)});
  }
  return {std::move(table)};
}

// Ablation: the §3.5 forecaster choice. One-step accuracy of seasonal ARIMA
// (Eq. 14) against persistence and the seasonal-naive rule on the diurnal
// MMOG workload, across weekly noise levels — the case for the model the
// provisioning strategy stands on.
Tables forecasters(const ExperimentScale& scale) {
  util::Table table("Ablation — one-step forecast MAPE (%) on 28 days of 4-hour windows");
  table.set_header({"weekly noise", "weekly growth", "persistence", "seasonal naive",
                    "SARIMA (Eq. 14)", "SARIMA (log)"});
  constexpr std::size_t kWindow = core::kForecastWindowHours;
  const std::size_t season = core::kWindowsPerWeek;
  for (const auto& [noise, growth] :
       std::vector<std::pair<double, double>>{{0.02, 0.0},
                                              {0.08, 0.0},
                                              {0.15, 0.0},
                                              {0.08, 0.10},
                                              {0.08, 0.20}}) {
    game::WorkloadConfig wcfg;
    wcfg.weekly_noise = noise;
    wcfg.weekly_growth = growth;
    game::WorkloadGenerator workload(wcfg, util::Rng(scale.seed));
    const auto hourly = workload.series(28);
    std::vector<double> windows;
    for (std::size_t i = 0; i + kWindow <= hourly.size(); i += kWindow) {
      double sum = 0.0;
      for (std::size_t k = i; k < i + kWindow; ++k) sum += hourly[k];
      windows.push_back(sum / static_cast<double>(kWindow));
    }
    forecast::PersistenceForecaster persistence;
    forecast::SeasonalNaiveForecaster naive(season);
    forecast::SeasonalArima sarima(forecast::SarimaConfig{season, 0.3, 0.3, false});
    forecast::SeasonalArima log_sarima(forecast::SarimaConfig{season, 0.3, 0.3, true});
    const auto p = forecast::evaluate_forecaster(persistence, windows, season + 1);
    const auto n = forecast::evaluate_forecaster(naive, windows, season + 1);
    const auto s = forecast::evaluate_forecaster(sarima, windows, season + 1);
    const auto ls = forecast::evaluate_forecaster(log_sarima, windows, season + 1);
    table.add_row({util::format_double(noise * 100, 0) + " %",
                   util::format_double(growth * 100, 0) + " %",
                   util::format_double(p.mape * 100, 2),
                   util::format_double(n.mape * 100, 2),
                   util::format_double(s.mape * 100, 2),
                   util::format_double(ls.mape * 100, 2)});
  }
  return {std::move(table)};
}

// Figs. 4 (PeerSim) and 5 (PlanetLab): user coverage vs the number of
// datacenters / supernodes, for latency requirements of 30–110 ms.
Tables coverage(const ExperimentScale& s) {
  const std::vector<double> reqs{30, 50, 70, 90, 110};
  return {core::coverage_vs_datacenters(TestbedProfile::kPeerSim, {5, 10, 15, 20, 25}, reqs,
                                        s.seed),
          core::coverage_vs_supernodes(TestbedProfile::kPeerSim,
                                       {0, 100, 200, 300, 400, 500, 600}, reqs, s.seed),
          core::coverage_vs_datacenters(TestbedProfile::kPlanetLab, {2, 4, 6, 8, 10}, reqs,
                                        s.seed),
          core::coverage_vs_supernodes(TestbedProfile::kPlanetLab,
                                       {0, 5, 10, 15, 20, 25, 30}, reqs, s.seed)};
}

// Figs. 6/7/8: cloud bandwidth, response latency and playback continuity
// vs the number of players, for every arm — as (PeerSim, PlanetLab) pairs.
Tables population(const ExperimentScale& s) {
  auto peersim =
      core::population_sweep(TestbedProfile::kPeerSim, {2000, 4000, 6000, 8000, 10000}, s);
  auto planetlab =
      core::population_sweep(TestbedProfile::kPlanetLab, {150, 300, 450, 600, 750}, s);
  return {std::move(peersim.bandwidth),  std::move(planetlab.bandwidth),
          std::move(peersim.latency),    std::move(planetlab.latency),
          std::move(peersim.continuity), std::move(planetlab.continuity)};
}

// Fig. 9: setup and churn latencies — server assignment (wall clock of the
// community partitioner), supernode join, player join and migration after
// injected supernode failures.
Tables setup_latency(const ExperimentScale& s) {
  return {core::setup_latency_vs_players(TestbedProfile::kPeerSim,
                                         {1000, 2000, 3000, 4000, 5000, 6000}, s),
          core::setup_latency_vs_supernodes(TestbedProfile::kPlanetLab, {10, 15, 20, 25, 30},
                                            s)};
}

// Figs. 10/11: satisfied players with and without reputation-based
// supernode selection / receiver-driven rate adaptation, vs supernode
// capacity.
Tables satisfaction(core::SatisfactionStrategy strategy, const ExperimentScale& s) {
  return {core::satisfaction_sweep(TestbedProfile::kPeerSim, strategy, {5, 10, 15, 20, 25}, s),
          core::satisfaction_sweep(TestbedProfile::kPlanetLab, strategy, {5, 10, 15, 20, 25},
                                   s)};
}
Tables reputation(const ExperimentScale& s) {
  return satisfaction(core::SatisfactionStrategy::kReputation, s);
}
Tables adaptation(const ExperimentScale& s) {
  Tables tables{quality_ladder_table()};
  for (auto& t : satisfaction(core::SatisfactionStrategy::kRateAdaptation, s)) {
    tables.push_back(std::move(t));
  }
  return tables;
}

// Fig. 12: response latency split into inter-server communication and
// everything else, with and without social server assignment, vs the
// number of servers per datacenter.
Tables server_assignment(const ExperimentScale& s) {
  return {core::server_assignment_sweep(TestbedProfile::kPeerSim, {5, 10, 15, 20, 25}, s),
          core::server_assignment_sweep(TestbedProfile::kPlanetLab, {5, 10, 15, 20, 25}, s)};
}

// Figs. 13/14/15: cloud bandwidth, response latency and continuity vs peak
// arrival rate, fixed pool (CloudFog/B) vs SARIMA-driven provisioning — as
// (PeerSim, PlanetLab) pairs.
Tables provisioning(const ExperimentScale& s) {
  auto peersim =
      core::provisioning_sweep(TestbedProfile::kPeerSim, {10, 20, 30, 40, 50, 60}, s);
  auto planetlab = core::provisioning_sweep(TestbedProfile::kPlanetLab, {2, 3, 4, 5, 6, 7}, s);
  return {std::move(peersim.bandwidth),  std::move(planetlab.bandwidth),
          std::move(peersim.latency),    std::move(planetlab.latency),
          std::move(peersim.continuity), std::move(planetlab.continuity)};
}

// Extension (§3.6 future work): malicious supernodes delay video packets;
// the private per-player reputation system is the defence. The richer
// adversaries run through bench_scenarios with acceptance envelopes.
Tables malicious(const ExperimentScale& s) {
  return {core::malicious_supernode_sweep(TestbedProfile::kPeerSim, {0.0, 0.1, 0.2, 0.3, 0.4},
                                          s)};
}

// Ablation: Eq. 15's ε must also absorb the geographic mismatch between
// seat supply and demand — small ε strands players on the cloud, large ε
// wastes update-feed bandwidth. The peak rate keeps the Eq. 15 fleet size
// the binding constraint (higher rates saturate the whole contributed
// fleet and flatten ε out).
Tables epsilon(const ExperimentScale& s) {
  return {core::epsilon_ablation(TestbedProfile::kPeerSim, {0.0, 0.25, 0.5, 1.0, 1.5, 2.0},
                                 /*peak_rate_per_min=*/10.0, s)};
}

// Resilience: a growing fraction of the serving fleet switches off without
// notice at every evening peak; the §3.2.2 migration machinery keeps the
// damage bounded.
Tables failures(const ExperimentScale& s) {
  return {core::failure_rate_sweep(TestbedProfile::kPeerSim, {0.0, 0.05, 0.1, 0.2, 0.4}, s)};
}

// Chaos: a seeded schedule of mixed faults at increasing intensity, one
// scenario-engine run per row. CLOUDFOG_FAULT_SEED replays the exact
// fault/recovery sequence from a CI log.
Tables chaos(const ExperimentScale& s) {
  return {scenario::chaos_sweep_table(TestbedProfile::kPeerSim, {0.0, 0.5, 1.0, 2.0, 4.0}, s)};
}

// Ablation: how many candidates should the cloud return (§3.2.1)?
Tables candidates(const ExperimentScale& s) {
  return {core::candidate_count_ablation(TestbedProfile::kPeerSim, {1, 2, 4, 8, 16, 32}, s)};
}

// ---- The catalogue ------------------------------------------------------

using Family = Tables (*)(const ExperimentScale&);
constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();

struct Figure {
  std::string name;
  Family family = nullptr;
  ExperimentScale scale;     ///< default scale, unless --quick/--paper
  std::size_t first = 0;     ///< the slice of the family's tables it prints
  std::size_t count = kAll;
};

/// In print order. Figures of one family are adjacent and share a default
/// scale, so a one-slot cache runs each family once.
const std::vector<Figure>& catalogue() {
  static const std::vector<Figure> figures{
      {"fig4", coverage, {}},
      {"fig6", population, {}, 0, 2},
      {"fig7", population, {}, 2, 2},
      {"fig8", population, {}, 4, 2},
      // Churn latencies stabilize quickly; a short run suffices.
      {"fig9", setup_latency, ExperimentScale::quick()},
      {"fig10", reputation, {}},
      {"fig11", adaptation, {}},
      {"fig12", server_assignment, {}},
      {"fig13", provisioning, ExperimentScale::provisioning(), 0, 2},
      {"fig14", provisioning, ExperimentScale::provisioning(), 2, 2},
      {"fig15", provisioning, ExperimentScale::provisioning(), 4, 2},
      {"fig16", economics_tables, {}},
      {"malicious", malicious, {}},
      {"incentives", contributor_market, {}},
      {"epsilon", epsilon, ExperimentScale::provisioning()},
      {"forecast", forecasters, {}},
      {"failures", failures, {}},
      {"chaos", chaos, {}},
      {"candidates", candidates, {}},
  };
  return figures;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Figure& fig : catalogue()) names.push_back(fig.name);
  const bench::BenchArgs args = bench::parse_args(argc, argv, names);

  Family ran = nullptr;
  Tables tables;
  for (const Figure& fig : catalogue()) {
    if (!args.names.empty() &&
        std::find(args.names.begin(), args.names.end(), fig.name) == args.names.end()) {
      continue;
    }
    if (fig.family != ran) {
      tables = fig.family(args.scale(fig.scale));
      ran = fig.family;
    }
    const std::size_t end = fig.count == kAll ? tables.size() : fig.first + fig.count;
    for (std::size_t i = fig.first; i < end; ++i) bench::print(tables[i], args.csv);
  }
  return 0;
}

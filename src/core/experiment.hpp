// Figure-level experiment runners. Each function regenerates one family
// of the paper's evaluation figures as a printable table: the x-axis
// sweep as rows, the experimental arms/series as columns.
// bench/cloudfog_figs holds the grids each figure sweeps and runs each
// function at most once per invocation.
//
// A sweep is a list of (row, arm) cells, each an independent fixed-seed
// System. The cells run on a deterministic worker pool (run_cells): each
// builds, runs, reduces and frees its own System, reporting into a child
// recorder, and results and recorders are merged in cell order — so the
// tables and the caller's recorder come out the same at any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "util/table.hpp"

namespace cloudfog::core {

/// How long the dynamic experiments run. The paper uses 28 cycles with 21
/// warm-up; the default here is proportionally shorter so the full bench
/// suite completes in minutes — pass paper() to match the paper exactly.
struct ExperimentScale {
  int cycles = 6;
  int warmup = 3;
  std::uint64_t seed = 42;
  /// Worker threads a sweep runs its cells on; 0 = hardware concurrency.
  /// Never more than the sweep has cells, and 1 whenever the caller's
  /// recorder has a trace consumer (see run_cells). Outputs do not depend
  /// on it.
  int jobs = 0;

  static ExperimentScale quick() { return {3, 1, 42}; }
  static ExperimentScale paper() { return {28, 21, 42}; }
  /// Long enough for the SARIMA season (one week of 4-hour windows) to be
  /// active in the measured cycles — used by the provisioning figures.
  static ExperimentScale provisioning() { return {10, 8, 42}; }
};

sim::CycleConfig to_cycle_config(const ExperimentScale& scale);

/// Runs cells 0..count-1 of a sweep, each as `cell(index, cell_rec)`, on up
/// to `jobs` worker threads (0 = hardware concurrency). Each cell reports
/// into its own child of `rec` (enabled like `rec`, counting trace events
/// without storing them); the children are merged into `rec` in cell
/// order. When `rec`'s trace has a consumer (a sink, or sampled/aggregated
/// retention) the cells instead run one after another straight into
/// `rec`, so traced runs stay byte-identical and bounded in memory.
///
/// If cells throw, the error of the lowest-index failing cell is rethrown
/// after every worker has stopped; the cells before it are merged.
using SweepCell = std::function<void(std::size_t cell, obs::Recorder& cell_rec)>;
void run_cells(std::size_t count, int jobs, obs::Recorder& rec, const SweepCell& cell);

/// run_cells collecting each cell's (default-constructible) result.
template <typename Cell>
auto map_cells(std::size_t count, int jobs, obs::Recorder& rec, Cell&& cell) {
  std::vector<std::invoke_result_t<Cell&, std::size_t, obs::Recorder&>> out(count);
  run_cells(count, jobs, rec,
            [&](std::size_t i, obs::Recorder& cell_rec) { out[i] = cell(i, cell_rec); });
  return out;
}

/// Fraction of `testbed` players within `req_rtt_ms` of any point.
double coverage_of(const Testbed& testbed, const std::vector<net::Endpoint>& points,
                   double req_rtt_ms);

// ---- Fig. 4(a) / 5(a): user coverage vs number of datacenters ----------
util::Table coverage_vs_datacenters(TestbedProfile profile,
                                    const std::vector<std::size_t>& dc_counts,
                                    const std::vector<double>& latency_reqs_ms,
                                    std::uint64_t seed);

// ---- Fig. 4(b) / 5(b): user coverage vs number of supernodes -----------
util::Table coverage_vs_supernodes(TestbedProfile profile,
                                   const std::vector<std::size_t>& sn_counts,
                                   const std::vector<double>& latency_reqs_ms,
                                   std::uint64_t seed);

// ---- Figs. 6/7/8: population sweep over all arms ------------------------
struct PopulationSweepResult {
  util::Table bandwidth;   ///< Fig. 6 — cloud egress (Mbps)
  util::Table latency;     ///< Fig. 7 — avg response latency (ms)
  util::Table continuity;  ///< Fig. 8 — avg playback continuity
};
PopulationSweepResult population_sweep(TestbedProfile profile,
                                       const std::vector<std::size_t>& player_counts,
                                       const ExperimentScale& scale,
                                       obs::Recorder& rec = obs::Recorder::global());

// ---- Fig. 9: setup/churn latencies --------------------------------------
/// (a) sweeps player counts (supernodes = 6 % of players, 100 failures);
/// (b) sweeps supernode counts at a fixed population (10 failures).
util::Table setup_latency_vs_players(TestbedProfile profile,
                                     const std::vector<std::size_t>& player_counts,
                                     const ExperimentScale& scale,
                                     obs::Recorder& rec = obs::Recorder::global());
util::Table setup_latency_vs_supernodes(TestbedProfile profile,
                                        const std::vector<std::size_t>& sn_counts,
                                        const ExperimentScale& scale,
                                        obs::Recorder& rec = obs::Recorder::global());

// ---- Fig. 10/11: strategy on/off vs supernode capacity ------------------
enum class SatisfactionStrategy { kReputation, kRateAdaptation };
util::Table satisfaction_sweep(TestbedProfile profile, SatisfactionStrategy strategy,
                               const std::vector<int>& supernode_capacities,
                               const ExperimentScale& scale,
                               obs::Recorder& rec = obs::Recorder::global());

// ---- Fig. 12: social server assignment vs servers per datacenter --------
util::Table server_assignment_sweep(TestbedProfile profile,
                                    const std::vector<int>& servers_per_dc,
                                    const ExperimentScale& scale,
                                    obs::Recorder& rec = obs::Recorder::global());

// ---- Figs. 13/14/15: provisioning vs peak arrival rate ------------------
struct ProvisioningSweepResult {
  util::Table bandwidth;   ///< Fig. 13 — cloud egress (Mbps)
  util::Table latency;     ///< Fig. 14 — avg response latency (ms)
  util::Table continuity;  ///< Fig. 15 — avg continuity
};
ProvisioningSweepResult provisioning_sweep(TestbedProfile profile,
                                           const std::vector<double>& peak_rates_per_min,
                                           const ExperimentScale& scale,
                                           obs::Recorder& rec = obs::Recorder::global());

// ---- Fig. 16: economics --------------------------------------------------
util::Table supernode_economics(const std::vector<double>& hours_per_day);
util::Table provider_savings(const std::vector<double>& renting_hours);

// ---- Ablation: Eq. 15's over-provisioning factor ε ------------------------
/// Eq. 15 sizes the fleet by raw seat count, but seats only help where
/// players are; ε absorbs that geographic imbalance. This sweep runs the
/// provisioning experiment at several ε values and reports QoS + deployed
/// fleet, exposing the under-provisioning cliff at small ε.
util::Table epsilon_ablation(TestbedProfile profile, const std::vector<double>& epsilons,
                             double peak_rate_per_min, const ExperimentScale& scale,
                             obs::Recorder& rec = obs::Recorder::global());

// ---- Resilience: supernode failure-rate sweep -----------------------------
/// Fails a fraction of the serving fleet every cycle (owners switching
/// machines off without notice — what the §3.1.1 contract is supposed to
/// prevent) and reports QoS plus migration statistics.
util::Table failure_rate_sweep(TestbedProfile profile,
                               const std::vector<double>& failure_fractions,
                               const ExperimentScale& scale,
                               obs::Recorder& rec = obs::Recorder::global());

// ---- Ablation: candidate-list size k --------------------------------------
/// §3.2.1's cloud returns "a number of supernodes"; this sweeps that
/// number. Too few candidates strand players on the cloud when local
/// seats are contended; more candidates cost probe traffic and join time.
util::Table candidate_count_ablation(TestbedProfile profile,
                                     const std::vector<std::size_t>& candidate_counts,
                                     const ExperimentScale& scale,
                                     obs::Recorder& rec = obs::Recorder::global());

// ---- Extension (§3.6 future work): malicious supernodes ------------------
/// Sweeps the fraction of supernodes that deliberately delay video
/// packets, with and without reputation-based selection — the defence the
/// paper's security discussion anticipates.
util::Table malicious_supernode_sweep(TestbedProfile profile,
                                      const std::vector<double>& malicious_fractions,
                                      const ExperimentScale& scale,
                                      obs::Recorder& rec = obs::Recorder::global());

}  // namespace cloudfog::core

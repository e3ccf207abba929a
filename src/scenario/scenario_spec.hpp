// Declarative stress scenarios (DESIGN.md §12).
//
// A ScenarioSpec names one reproducible stress experiment: the world it
// runs in (testbed profile, population, fleet), the load shape thrown at
// it (flash crowds, timezone-staggered diurnal waves, churn storms), the
// infrastructure faults (background chaos rate plus a correlated regional
// outage over a geographic box), the workload mix, the adversary, and the
// AcceptanceEnvelope the outcome must stay inside. Specs come from two
// places with identical semantics:
//   * TOML-lite scenario files (`parse_scenario` / `load_scenario_file`,
//     grammar in DESIGN.md §12.2 — the bundled `data/scenarios/*.scn`),
//   * C++ builders (`chaos_scenario`, tests building specs inline).
// Same spec + same seed ⇒ byte-identical run, whatever the source.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "fault/fault_plan.hpp"
#include "scenario/adversary.hpp"
#include "scenario/envelope.hpp"

namespace cloudfog::scenario {

/// Game-launch spike: arrivals ramp up over `ramp_hours`, hold a plateau,
/// then decay back to the base rate. `peak_per_minute` is the extra
/// arrival rate on top of the scenario's base at the plateau.
struct FlashCrowdPhase {
  int start_hour = 24;
  int ramp_hours = 2;
  int plateau_hours = 4;
  int decay_hours = 4;
  double peak_per_minute = 120.0;
};

/// Timezone-staggered evening waves: `regions` player populations whose
/// sinusoidal evening peaks are offset by `stagger_hours` each, summed on
/// top of the base rate (only the positive half-wave contributes).
struct DiurnalPhase {
  int regions = 3;
  double stagger_hours = 3.0;
  double amplitude_per_minute = 25.0;
};

/// Mass mobile churn: at `start_hour` every online player leaves with
/// probability `departure_fraction` (the commuter-train tunnel), and new
/// arrivals optionally pause for `duration_hours`.
struct ChurnStormPhase {
  int start_hour = 30;
  int duration_hours = 2;
  double departure_fraction = 0.5;
  bool pause_arrivals = true;
};

/// Regional ISP outage: `crash_fraction` of the supernodes inside `box`
/// crash at `start_hour` for `duration_hours`, while the cloud→supernode
/// update channel suffers a correlated loss + delay burst. Optionally the
/// two datacenter regions nearest/farthest from the box partition too.
struct OutagePhase {
  int start_hour = 24;
  int duration_hours = 6;
  fault::GeoBox box{0.0, 0.0, 1500.0, 1400.0};
  double crash_fraction = 0.7;
  double loss_fraction = 0.25;
  double delay_ms = 120.0;
  bool partition = true;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;

  // World.
  core::TestbedProfile profile = core::TestbedProfile::kPeerSim;
  std::size_t players = 4000;
  std::size_t supernodes = 240;
  int cycles = 4;
  int warmup = 1;
  std::uint64_t seed = 42;
  /// 0 = the System is seeded with `seed` too (the usual case).
  std::uint64_t system_seed = 0;

  // Arm under test (always CloudFog; the toggles pick the §3 strategies).
  bool reputation = true;
  bool rate_adaptation = true;
  bool social_assignment = false;
  bool provisioning = false;
  /// Fog selection deadline budget (ms); 0 = unbounded.
  double selection_deadline_ms = 700.0;

  // Load shaping. `daily_sessions` switches to the §4.1 daily-roll
  // workload (load phases then don't apply); otherwise Poisson arrivals
  // at `base_arrival_per_minute` shaped by the phases below.
  bool daily_sessions = false;
  double base_arrival_per_minute = 30.0;
  std::optional<FlashCrowdPhase> flash_crowd;
  std::optional<DiurnalPhase> diurnal;
  std::optional<ChurnStormPhase> churn_storm;

  // Infrastructure stress.
  double faults_per_hour = 0.0;  ///< background mixed-fault chaos rate
  std::optional<OutagePhase> outage;

  // Workload mix: weights[g] biases catalog game g (empty = the activity
  // model's Zipf popularity).
  std::vector<double> game_mix;

  AdversaryConfig adversary;
  AcceptanceEnvelope envelope;
};

/// Parses the TOML-lite scenario grammar. On failure returns false and
/// puts a "line N: what" message in `*error`. `*out` is default-initialised
/// first, so omitted keys keep their documented defaults.
bool parse_scenario(const std::string& text, ScenarioSpec* out, std::string* error);

/// Reads and parses a scenario file; the filename is reported in errors.
bool load_scenario_file(const std::string& path, ScenarioSpec* out, std::string* error);

/// C++ builder for one arm of the chaos sweep (`cloudfog_figs chaos`):
/// paper-profile testbed, daily sessions, all strategies, mixed background
/// faults at `faults_per_hour`.
ScenarioSpec chaos_scenario(core::TestbedProfile profile, double faults_per_hour,
                            const core::ExperimentScale& scale);

}  // namespace cloudfog::scenario

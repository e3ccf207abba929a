// ScenarioEngine: compiles a ScenarioSpec into one coordinated run.
//
// The engine owns the whole arc of a stress experiment: it builds the
// testbed (or borrows a shared one), translates the spec's phases into an
// hour-by-hour load timeline, compiles the outage phase into correlated
// FaultSpecs over the geo-selected supernode set, drives the System
// manually subcycle by subcycle, and finally evaluates the spec's
// AcceptanceEnvelope against the aggregated metrics. Everything is seeded
// from the spec, so the same spec + seed replays byte-identically — the
// determinism gate runs one bundled scenario twice and diffs the traces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "core/testbed.hpp"
#include "scenario/envelope.hpp"
#include "scenario/scenario_spec.hpp"
#include "util/table.hpp"

namespace cloudfog::scenario {

struct ScenarioRunOptions {
  /// CI smoke mode: clamp the population and cycle count so the whole
  /// bundled suite finishes in seconds (warm-up shrinks to keep at least
  /// one measured cycle).
  bool smoke = false;
  std::size_t smoke_max_players = 4000;
  int smoke_max_cycles = 4;
  /// Forces the reputation strategy on/off regardless of the spec — the
  /// "does the defence actually carry the envelope?" ablation.
  std::optional<bool> reputation_override;
  std::optional<std::uint64_t> seed_override;
};

struct ScenarioOutcome {
  std::string name;
  std::string label;  ///< run-report label, "scenario.<name>"
  std::vector<ScenarioMetric> metrics;
  EnvelopeReport envelope;
  bool passed = false;  ///< envelope held (vacuously true when empty)

  double metric(std::string_view metric_name) const;  ///< 0 when absent
};

class ScenarioEngine {
 public:
  explicit ScenarioEngine(ScenarioSpec spec, ScenarioRunOptions opts = {});

  /// The spec actually run (after smoke clamping / overrides).
  const ScenarioSpec& spec() const { return spec_; }

  /// Runs the scenario, reporting into `rec`. `shared_testbed` skips world
  /// construction when the caller sweeps several scenarios over one world;
  /// it must match the spec's player count.
  ScenarioOutcome run(const core::Testbed* shared_testbed = nullptr,
                      obs::Recorder& rec = obs::Recorder::global());

 private:
  ScenarioSpec spec_;
};

/// One row per bounded metric: value, bound, signed margin, verdict.
util::Table envelope_table(const ScenarioOutcome& outcome);

/// The chaos extension (`cloudfog_figs chaos`): one chaos_scenario per
/// fault rate over a shared testbed. The rates are sweep cells
/// (core::run_cells).
util::Table chaos_sweep_table(core::TestbedProfile profile,
                              const std::vector<double>& faults_per_hour,
                              const core::ExperimentScale& scale,
                              obs::Recorder& rec = obs::Recorder::global());

}  // namespace cloudfog::scenario

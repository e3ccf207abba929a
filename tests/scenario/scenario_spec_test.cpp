#include "scenario/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "scenario/envelope.hpp"

namespace cloudfog::scenario {
namespace {

ScenarioSpec must_parse(const std::string& text) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_TRUE(parse_scenario(text, &spec, &error)) << error;
  return spec;
}

std::string must_fail(const std::string& text) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(parse_scenario(text, &spec, &error));
  return error;
}

TEST(ScenarioParser, EmptyTextKeepsDocumentedDefaults) {
  const ScenarioSpec spec = must_parse("");
  EXPECT_EQ(spec.name, "unnamed");
  EXPECT_EQ(spec.players, 4000u);
  EXPECT_EQ(spec.supernodes, 240u);
  EXPECT_EQ(spec.cycles, 4);
  EXPECT_EQ(spec.warmup, 1);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_TRUE(spec.reputation);
  EXPECT_FALSE(spec.daily_sessions);
  EXPECT_FALSE(spec.flash_crowd.has_value());
  EXPECT_FALSE(spec.outage.has_value());
  EXPECT_EQ(spec.adversary.kind, AdversaryKind::kNone);
  EXPECT_TRUE(spec.envelope.empty());
}

TEST(ScenarioParser, FullGrammarRoundTrip) {
  const ScenarioSpec spec = must_parse(R"(
# A kitchen-sink spec exercising every section.
name = everything
description = All sections at once
profile = planetlab
players = 750
supernodes = 30
cycles = 5
warmup = 2
seed = 7
system_seed = 88
workload = arrivals
base_arrival_per_minute = 12.5
faults_per_hour = 0.75
selection_deadline_ms = 500
reputation = false
rate_adaptation = on
social_assignment = true
provisioning = off

[phase.flash_crowd]
start_hour = 26    # trailing comments are stripped
ramp_hours = 3
plateau_hours = 2
decay_hours = 5
peak_per_minute = 90

[phase.diurnal]
regions = 4
stagger_hours = 2.5
amplitude_per_minute = 15

[phase.churn_storm]
start_hour = 40
duration_hours = 3
departure_fraction = 0.4
pause_arrivals = false

[phase.outage]
start_hour = 50
duration_hours = 4
x0_km = 100
y0_km = 200
x1_km = 900
y1_km = 800
crash_fraction = 0.6
loss_fraction = 0.2
delay_ms = 90
partition = false

[adversary]
kind = on_off
fraction = 0.2
delay_ms = 60
period_cycles = 3
on_cycles = 2

[mix]
game.0 = 2.0
game.2 = 1.0

[envelope]
continuity.min = 0.8
latency_ms.max = 150
)");
  EXPECT_EQ(spec.name, "everything");
  EXPECT_EQ(spec.profile, core::TestbedProfile::kPlanetLab);
  EXPECT_EQ(spec.players, 750u);
  EXPECT_EQ(spec.cycles, 5);
  EXPECT_EQ(spec.system_seed, 88u);
  EXPECT_FALSE(spec.daily_sessions);
  EXPECT_EQ(spec.base_arrival_per_minute, 12.5);
  EXPECT_EQ(spec.faults_per_hour, 0.75);
  EXPECT_EQ(spec.selection_deadline_ms, 500.0);
  EXPECT_FALSE(spec.reputation);
  EXPECT_TRUE(spec.rate_adaptation);
  EXPECT_TRUE(spec.social_assignment);
  EXPECT_FALSE(spec.provisioning);

  ASSERT_TRUE(spec.flash_crowd.has_value());
  EXPECT_EQ(spec.flash_crowd->start_hour, 26);
  EXPECT_EQ(spec.flash_crowd->peak_per_minute, 90.0);
  ASSERT_TRUE(spec.diurnal.has_value());
  EXPECT_EQ(spec.diurnal->regions, 4);
  EXPECT_EQ(spec.diurnal->stagger_hours, 2.5);
  ASSERT_TRUE(spec.churn_storm.has_value());
  EXPECT_EQ(spec.churn_storm->departure_fraction, 0.4);
  EXPECT_FALSE(spec.churn_storm->pause_arrivals);
  ASSERT_TRUE(spec.outage.has_value());
  EXPECT_EQ(spec.outage->box.x0_km, 100.0);
  EXPECT_EQ(spec.outage->box.y1_km, 800.0);
  EXPECT_EQ(spec.outage->crash_fraction, 0.6);
  EXPECT_FALSE(spec.outage->partition);

  EXPECT_EQ(spec.adversary.kind, AdversaryKind::kOnOff);
  EXPECT_EQ(spec.adversary.fraction, 0.2);
  EXPECT_EQ(spec.adversary.period_cycles, 3);
  EXPECT_EQ(spec.game_mix, (std::vector<double>{2.0, 0.0, 1.0}));
  ASSERT_EQ(spec.envelope.bounds().size(), 2u);
  EXPECT_EQ(spec.envelope.bounds()[0].metric, "continuity");
  EXPECT_EQ(spec.envelope.bounds()[0].min, 0.8);
  EXPECT_EQ(spec.envelope.bounds()[1].max, 150.0);
}

TEST(ScenarioParser, ErrorsNameTheLine) {
  EXPECT_EQ(must_fail("players = twelve"), "line 1: expected a number, got 'twelve'");
  EXPECT_NE(must_fail("name = x\nbogus_key = 1").find("line 2: unknown key"),
            std::string::npos);
  EXPECT_NE(must_fail("[phase.flash_crowd").find("line 1: unterminated section"),
            std::string::npos);
  EXPECT_NE(must_fail("[nonsense]\nx = 1").find("unknown section"), std::string::npos);
  EXPECT_NE(must_fail("no equals sign here").find("expected key = value"),
            std::string::npos);
  EXPECT_NE(must_fail("[envelope]\ntypo_metric.min = 1")
                .find("unknown envelope metric 'typo_metric'"),
            std::string::npos);
  EXPECT_NE(must_fail("[envelope]\ncontinuity.mid = 1").find("min or max"),
            std::string::npos);
  EXPECT_NE(must_fail("[adversary]\nkind = sybil").find("unknown adversary kind"),
            std::string::npos);
}

TEST(ScenarioParser, ValidationRejectsImpossibleSpecs) {
  EXPECT_NE(must_fail("cycles = 2\nwarmup = 2").find("at least one measured cycle"),
            std::string::npos);
  EXPECT_NE(must_fail("players = 0").find("players must be positive"), std::string::npos);
  // Phases must fit the horizon (2 cycles = 48 h).
  EXPECT_NE(must_fail("cycles = 2\n[phase.outage]\nstart_hour = 48")
                .find("outage window must fit"),
            std::string::npos);
  EXPECT_NE(must_fail("cycles = 2\n[phase.churn_storm]\nstart_hour = 60")
                .find("churn storm must start inside"),
            std::string::npos);
  EXPECT_NE(must_fail("[adversary]\nfraction = 1.5").find("fraction must be within"),
            std::string::npos);
}

TEST(ScenarioParser, LoadScenarioFilePrefixesThePath) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(load_scenario_file("/nonexistent/nope.scn", &spec, &error));
  EXPECT_NE(error.find("/nonexistent/nope.scn"), std::string::npos);
}

TEST(ScenarioParser, BundledScenariosParseAndCarryEnvelopes) {
  // Lists data/scenarios/*.scn the way bench_scenarios does.
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string(CLOUDFOG_REPO_DIR) + "/data/scenarios")) {
    if (entry.path().extension() == ".scn") files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 6u);
  for (const auto& file : files) {
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(load_scenario_file(file.string(), &spec, &error)) << error;
    const std::string name = file.stem().string();
    // The file's declared name must match its filename — `--scenario NAME`
    // resolves files by name, so a mismatch would make CI run the wrong spec.
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.description.empty()) << name;
    // Every bundled scenario must be machine-checkable.
    EXPECT_FALSE(spec.envelope.empty()) << name;
  }
}

TEST(Envelope, MarginsAndVerdicts) {
  AcceptanceEnvelope env;
  env.require_min("continuity", 0.8);
  env.require_max("latency_ms", 150.0);
  env.require_min("satisfied_pct", 30.0);

  const std::vector<ScenarioMetric> metrics = {
      {"continuity", 0.9},      // +0.1 headroom
      {"latency_ms", 180.0},    // 30 over the max
      {"satisfied_pct", 30.0},  // exactly on the edge still passes
  };
  const EnvelopeReport report = env.check(metrics);
  ASSERT_EQ(report.checks.size(), 3u);
  EXPECT_TRUE(report.checks[0].passed);
  EXPECT_NEAR(report.checks[0].margin, 0.1, 1e-12);
  EXPECT_FALSE(report.checks[1].passed);
  EXPECT_NEAR(report.checks[1].margin, -30.0, 1e-12);
  EXPECT_TRUE(report.checks[2].passed);
  EXPECT_EQ(report.checks[2].margin, 0.0);
  EXPECT_FALSE(report.passed);
  EXPECT_NEAR(report.min_margin, -30.0, 1e-12);
}

TEST(Envelope, BandBoundUsesTheNearerEdge) {
  AcceptanceEnvelope env;
  env.require_min("mos", 2.0);
  env.require_max("mos", 4.0);  // merges into one band bound
  ASSERT_EQ(env.bounds().size(), 1u);
  const EnvelopeReport report = env.check({{"mos", 3.5}});
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_TRUE(report.passed);
  EXPECT_NEAR(report.checks[0].margin, 0.5, 1e-12);  // 0.5 to the max, 1.5 to the min
}

TEST(Envelope, MissingMetricFails) {
  AcceptanceEnvelope env;
  env.require_min("mttr_s", 0.0);
  const EnvelopeReport report = env.check({{"continuity", 1.0}});
  ASSERT_EQ(report.checks.size(), 1u);
  EXPECT_FALSE(report.checks[0].metric_found);
  EXPECT_FALSE(report.checks[0].passed);
  EXPECT_FALSE(report.passed);
}

TEST(Envelope, EmptyEnvelopePassesVacuously) {
  const EnvelopeReport report = AcceptanceEnvelope{}.check({{"continuity", 0.1}});
  EXPECT_TRUE(report.passed);
  EXPECT_TRUE(report.checks.empty());
  EXPECT_EQ(report.min_margin, 0.0);
}

TEST(ChaosScenarioBuilder, ReproducesTheLegacyChaosArm) {
  const core::ExperimentScale scale{3, 1, 42};
  const ScenarioSpec spec =
      chaos_scenario(core::TestbedProfile::kPeerSim, 2.0, scale);
  EXPECT_EQ(spec.name, "chaos-2.00");
  EXPECT_EQ(spec.players, 10000u);
  EXPECT_EQ(spec.supernodes, 600u);
  EXPECT_TRUE(spec.daily_sessions);
  EXPECT_TRUE(spec.reputation && spec.rate_adaptation && spec.social_assignment &&
              spec.provisioning);
  EXPECT_EQ(spec.system_seed, scale.seed + 81);
  EXPECT_EQ(spec.faults_per_hour, 2.0);
  EXPECT_TRUE(spec.envelope.empty());  // the sweep reports, the caller judges
}

TEST(ScenarioMetrics, VocabularyIsClosed) {
  for (const std::string& name : scenario_metric_names()) {
    EXPECT_TRUE(is_scenario_metric(name)) << name;
  }
  EXPECT_FALSE(is_scenario_metric("typo_metric"));
  EXPECT_FALSE(is_scenario_metric(""));
}

}  // namespace
}  // namespace cloudfog::scenario

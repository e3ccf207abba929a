// Tests of the figure-regeneration harness: every experiment function
// produces a well-formed table with the expected series, and the sweeps
// show the qualitative shapes the paper reports.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hpp"

namespace cloudfog::core {
namespace {

double cell(const util::Table& t, std::size_t row, std::size_t col) {
  return std::strtod(t.cell(row, col).c_str(), nullptr);
}

TEST(Experiment, CoverageVsDatacentersShape) {
  const auto table = coverage_vs_datacenters(TestbedProfile::kPeerSim, {5, 15, 25},
                                             {30.0, 110.0}, 42);
  ASSERT_EQ(table.row_count(), 3u);
  ASSERT_EQ(table.column_count(), 3u);
  // Coverage grows with datacenters…
  EXPECT_LE(cell(table, 0, 1), cell(table, 2, 1) + 1e-9);
  // …and with laxer latency requirements.
  for (std::size_t row = 0; row < 3; ++row) {
    EXPECT_LT(cell(table, row, 1), cell(table, row, 2));
  }
}

TEST(Experiment, CoverageVsSupernodesBeatsDatacentersAlone) {
  const std::vector<double> reqs{50.0};
  const auto dc = coverage_vs_datacenters(TestbedProfile::kPeerSim, {5}, reqs, 42);
  const auto sn = coverage_vs_supernodes(TestbedProfile::kPeerSim, {0, 300}, reqs, 42);
  // Row 0 of the supernode sweep (0 supernodes) equals the 5-DC baseline.
  EXPECT_NEAR(cell(sn, 0, 1), cell(dc, 0, 1), 1e-9);
  // Adding 300 supernodes raises coverage substantially (Fig. 4b).
  EXPECT_GT(cell(sn, 1, 1), cell(sn, 0, 1) + 0.1);
}

TEST(Experiment, PopulationSweepTablesWellFormed) {
  const auto result =
      population_sweep(TestbedProfile::kPeerSim, {400, 800}, ExperimentScale::quick());
  EXPECT_EQ(result.bandwidth.row_count(), 2u);
  EXPECT_EQ(result.bandwidth.column_count(), 5u);
  EXPECT_EQ(result.latency.column_count(), 6u);
  EXPECT_EQ(result.continuity.column_count(), 6u);
  // Cloud bandwidth grows with population.
  EXPECT_GT(cell(result.bandwidth, 1, 1), cell(result.bandwidth, 0, 1));
  // CloudFog consumes far less cloud bandwidth than Cloud.
  EXPECT_LT(cell(result.bandwidth, 1, 4), cell(result.bandwidth, 1, 1) / 2.0);
}

TEST(Experiment, SetupLatencyTablesWellFormed) {
  const auto table = setup_latency_vs_players(TestbedProfile::kPeerSim, {400, 800},
                                              ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 2u);
  ASSERT_EQ(table.column_count(), 5u);
  constexpr std::size_t kSwapTrialsCol = 3;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    for (std::size_t col = 1; col < table.column_count(); ++col) {
      if (col == kSwapTrialsCol) continue;
      EXPECT_GE(cell(table, row, col), 0.0);
      EXPECT_LT(cell(table, row, col), 60.0);  // every latency under a minute
    }
    // Server assignment is a count of swap trials, bounded by h1.
    EXPECT_GT(cell(table, row, kSwapTrialsCol), 0.0);
    EXPECT_LE(cell(table, row, kSwapTrialsCol), SystemConfig{}.partitioner_swap_trials);
  }
}

TEST(Experiment, SetupLatencyVsSupernodesPrintsTheRecordedJoins) {
  // Fig. 9's supernode-join column is the mean of the registrations each
  // System records at construction: one RTT to the cloud plus setup (§3.2.1).
  const auto table = setup_latency_vs_supernodes(TestbedProfile::kPlanetLab, {10, 20},
                                                 ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 2u);
  constexpr std::size_t kSupernodeJoinCol = 1;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    EXPECT_GT(cell(table, row, kSupernodeJoinCol), 0.0);
    EXPECT_LT(cell(table, row, kSupernodeJoinCol), 1.0);
  }
}

TEST(Experiment, SatisfactionSweepHasBothArms) {
  const auto table = satisfaction_sweep(TestbedProfile::kPeerSim,
                                        SatisfactionStrategy::kReputation, {10, 20},
                                        ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 2u);
  ASSERT_EQ(table.column_count(), 3u);
  for (std::size_t row = 0; row < 2; ++row) {
    EXPECT_GE(cell(table, row, 1), 0.0);
    EXPECT_LE(cell(table, row, 1), 100.0);
  }
}

TEST(Experiment, ServerAssignmentSweepShowsReduction) {
  const auto table = server_assignment_sweep(TestbedProfile::kPeerSim, {10},
                                             ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 1u);
  // w/ server latency < w/o server latency (Fig. 12).
  EXPECT_LT(cell(table, 0, 1), cell(table, 0, 3));
}

TEST(Experiment, ProvisioningSweepWellFormed) {
  const auto result = provisioning_sweep(TestbedProfile::kPeerSim, {20.0},
                                         ExperimentScale::quick());
  ASSERT_EQ(result.bandwidth.row_count(), 1u);
  ASSERT_EQ(result.bandwidth.column_count(), 3u);
  EXPECT_GT(cell(result.continuity, 0, 2), 0.0);
}

TEST(Experiment, EconomicsTablesMatchPaperNumbers) {
  const auto sn = supernode_economics({24.0});
  // Rewards dominate costs (Fig. 16a).
  EXPECT_GT(cell(sn, 0, 1), 10.0 * cell(sn, 0, 2));
  EXPECT_NEAR(cell(sn, 0, 3), cell(sn, 0, 1) - cell(sn, 0, 2), 0.02);

  const auto provider = provider_savings({100.0});
  // renting fee = 2.6 · 100; savings positive (Fig. 16b).
  EXPECT_NEAR(cell(provider, 0, 1), 260.0, 1e-6);
  EXPECT_GT(cell(provider, 0, 3), 0.0);
}

TEST(Experiment, EpsilonAblationWellFormedAndMoreSeatsHelpQoS) {
  const auto table = epsilon_ablation(TestbedProfile::kPeerSim, {0.0, 2.0}, 15.0,
                                      ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 2u);
  ASSERT_EQ(table.column_count(), 4u);
  // A larger ε deploys more supernodes: continuity and fog coverage must
  // not get worse. (Egress is non-monotone: under-provisioning trades
  // update feeds for much costlier direct streams.)
  EXPECT_GE(cell(table, 1, 2), cell(table, 0, 2) - 0.02);
  EXPECT_GE(cell(table, 1, 3), cell(table, 0, 3) - 2.0);
  for (std::size_t row = 0; row < 2; ++row) {
    EXPECT_GE(cell(table, row, 2), 0.0);
    EXPECT_LE(cell(table, row, 2), 1.0);
  }
}

TEST(Experiment, MaliciousSweepShowsTheAttackAndTheDefence) {
  const auto table = malicious_supernode_sweep(TestbedProfile::kPeerSim, {0.0, 0.4},
                                               ExperimentScale::quick());
  ASSERT_EQ(table.row_count(), 2u);
  // The attack lowers satisfaction in both arms…
  EXPECT_LT(cell(table, 1, 2), cell(table, 0, 2));
  // …and reputation retains an edge under attack.
  EXPECT_GE(cell(table, 1, 1), cell(table, 1, 2) - 1.0);
}

TEST(Experiment, ScalePresetsAreConsistent) {
  EXPECT_LT(ExperimentScale::quick().cycles, ExperimentScale{}.cycles);
  EXPECT_EQ(ExperimentScale::paper().cycles, 28);
  EXPECT_EQ(ExperimentScale::paper().warmup, 21);
  const auto cfg = to_cycle_config(ExperimentScale::paper());
  EXPECT_EQ(cfg.total_cycles, 28);
}

TEST(Experiment, DeterministicAcrossRuns) {
  const auto a =
      population_sweep(TestbedProfile::kPeerSim, {400}, ExperimentScale::quick());
  const auto b =
      population_sweep(TestbedProfile::kPeerSim, {400}, ExperimentScale::quick());
  for (std::size_t col = 1; col < a.latency.column_count(); ++col) {
    EXPECT_EQ(a.latency.cell(0, col), b.latency.cell(0, col));
  }
}

}  // namespace
}  // namespace cloudfog::core

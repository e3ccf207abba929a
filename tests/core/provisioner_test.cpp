#include "core/provisioner.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::core {
namespace {

/// A disabled recorder: these tests check the provisioner, not its reports.
obs::Recorder& quiet_recorder() {
  static obs::Recorder rec;
  return rec;
}

std::vector<SupernodeState> make_fleet(std::size_t n) {
  std::vector<SupernodeState> fleet(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet[i].id = i;
    fleet[i].capacity = 10;
  }
  return fleet;
}

TEST(Provisioner, NoHistoryNeedsNothing) {
  const Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  EXPECT_EQ(prov.supernodes_needed(10.0), 0u);
}

TEST(Provisioner, Eq15FleetSizing) {
  ProvisionerConfig cfg;
  cfg.epsilon = 0.1;
  Provisioner prov(cfg, quiet_recorder());
  prov.observe_window(1000.0);
  // Persistence forecast = 1000; N_s = ceil(1.1 * 1000 / 10) = 110.
  EXPECT_EQ(prov.supernodes_needed(10.0), 110u);
}

TEST(Provisioner, EpsilonScalesFleet) {
  ProvisionerConfig a;
  a.epsilon = 0.0;
  ProvisionerConfig b;
  b.epsilon = 1.0;
  Provisioner pa(a, quiet_recorder());
  Provisioner pb(b, quiet_recorder());
  pa.observe_window(500.0);
  pb.observe_window(500.0);
  EXPECT_EQ(pa.supernodes_needed(10.0), 50u);
  EXPECT_EQ(pb.supernodes_needed(10.0), 100u);
}

TEST(Provisioner, DeploySetsExactCount) {
  const Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  auto fleet = make_fleet(20);
  util::Rng rng(1);
  EXPECT_EQ(prov.deploy(fleet, 7, rng), 7u);
  std::size_t deployed = 0;
  for (const auto& sn : fleet) {
    if (sn.deployed) ++deployed;
  }
  EXPECT_EQ(deployed, 7u);
}

TEST(Provisioner, DeployCapsAtFleetSize) {
  const Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  auto fleet = make_fleet(5);
  util::Rng rng(2);
  EXPECT_EQ(prov.deploy(fleet, 50, rng), 5u);
}

TEST(Provisioner, FailedSupernodesNeverDeployed) {
  const Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  auto fleet = make_fleet(10);
  for (std::size_t i = 0; i < 5; ++i) fleet[i].failed = true;
  util::Rng rng(3);
  EXPECT_EQ(prov.deploy(fleet, 10, rng), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_FALSE(fleet[i].deployed);
}

TEST(Provisioner, BusySupernodesPreferred) {
  // Eq. 16: candidates are ranked by last window's supported players and
  // picked with rank-harmonic probability, so the busiest half must be
  // chosen far more often than the idle half.
  const Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  auto fleet = make_fleet(20);
  for (std::size_t i = 0; i < 10; ++i) fleet[i].supported_last_window = 100;
  util::Rng rng(4);
  int busy_picks = 0;
  int idle_picks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    prov.deploy(fleet, 5, rng);
    for (std::size_t i = 0; i < 20; ++i) {
      if (!fleet[i].deployed) continue;
      (fleet[i].supported_last_window > 0 ? busy_picks : idle_picks)++;
    }
  }
  EXPECT_GT(busy_picks, idle_picks * 2);
}

TEST(Provisioner, ForecastFollowsSeasonalPattern) {
  ProvisionerConfig cfg;
  cfg.sarima.season_length = 6;
  Provisioner prov(cfg, quiet_recorder());
  // Two full "weeks" of a 6-window pattern.
  const std::vector<double> pattern{100, 200, 400, 800, 600, 150};
  for (int rep = 0; rep < 3; ++rep) {
    for (double v : pattern) prov.observe_window(v);
  }
  // Next window corresponds to pattern[0].
  EXPECT_NEAR(prov.forecast_players(), 100.0, 30.0);
}

TEST(Provisioner, Validation) {
  ProvisionerConfig cfg;
  cfg.window_hours = 0;
  EXPECT_THROW(Provisioner(cfg, quiet_recorder()), ConfigError);
  cfg = ProvisionerConfig{};
  cfg.epsilon = -0.5;
  EXPECT_THROW(Provisioner(cfg, quiet_recorder()), ConfigError);
  Provisioner prov(ProvisionerConfig{}, quiet_recorder());
  EXPECT_THROW(prov.supernodes_needed(0.0), ConfigError);
  EXPECT_THROW(prov.observe_window(-1.0), ConfigError);
}

}  // namespace
}  // namespace cloudfog::core

// cloudfog — command-line driver for the library.
//
// Subcommands:
//   run        simulate one system arm and print its QoS summary
//   compare    run all five arms of the paper's evaluation side by side
//   coverage   Fig. 4-style coverage for a datacenter/supernode deployment
//   economics  contributor & provider economics tables
//
// The paper's figures come from bench/cloudfog_figs (add --csv for CSV).
//
//   $ ./cloudfog_cli run --arch cloudfog-a --players 2000 --cycles 6 --seed 7
//   $ ./cloudfog_cli compare --profile planetlab --csv
//   $ ./cloudfog_cli coverage --supernodes 300
#include <iostream>

#include "core/baselines.hpp"
#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"

namespace {

using namespace cloudfog;

int usage() {
  std::cout <<
      "usage: cloudfog_cli <run|compare|coverage|economics> [options]\n"
      "\n"
      "common options:\n"
      "  --profile peersim|planetlab   testbed profile (default peersim)\n"
      "  --players N                   population size (default per profile)\n"
      "  --cycles N --warmup N         schedule (default 6/3)\n"
      "  --seed N                      root seed (default 42)\n"
      "  --csv                         CSV output\n"
      "run options:\n"
      "  --arch cloud|cdn|cdn-small|cloudfog-b|cloudfog-a (default cloudfog-a)\n"
      "coverage options:\n"
      "  --supernodes N                supernodes on top of the default DCs\n";
  return 2;
}

core::TestbedProfile profile_of(const util::CliArgs& args) {
  const std::string name = args.get_string("profile", "peersim");
  if (name == "peersim") return core::TestbedProfile::kPeerSim;
  if (name == "planetlab") return core::TestbedProfile::kPlanetLab;
  throw ConfigError("unknown profile: " + name);
}

core::Testbed make_testbed(const util::CliArgs& args) {
  const auto profile = profile_of(args);
  const auto default_players = profile == core::TestbedProfile::kPeerSim ? 10000 : 750;
  const auto players =
      static_cast<std::size_t>(args.get_int("players", default_players));
  const auto cfg = profile == core::TestbedProfile::kPeerSim
                       ? core::TestbedConfig::peersim(players)
                       : core::TestbedConfig::planetlab(players);
  return core::Testbed(cfg, static_cast<std::uint64_t>(args.get_int("seed", 42)));
}

sim::CycleConfig cycles_of(const util::CliArgs& args) {
  sim::CycleConfig cfg;
  cfg.total_cycles = static_cast<int>(args.get_int("cycles", 6));
  cfg.warmup_cycles = static_cast<int>(args.get_int("warmup", 3));
  return cfg;
}

void emit(const util::CliArgs& args, const util::Table& table) {
  if (args.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
}

core::System make_arm(const core::Testbed& testbed, const std::string& arch,
                      std::uint64_t seed) {
  if (arch == "cloud") return core::make_cloud_system(testbed, seed);
  if (arch == "cdn") return core::make_cdn_system(testbed, seed);
  if (arch == "cdn-small") return core::make_small_cdn_system(testbed, seed);
  if (arch == "cloudfog-b") return core::make_cloudfog_basic(testbed, seed);
  if (arch == "cloudfog-a") return core::make_cloudfog_advanced(testbed, seed);
  throw ConfigError("unknown architecture: " + arch);
}

void metrics_rows(util::Table& table, const std::string& name,
                  const core::RunMetrics& m) {
  table.add_row({name, util::format_double(m.response_latency_ms.mean(), 1),
                 util::format_double(m.continuity.mean(), 3),
                 util::format_double(m.satisfied_fraction.mean() * 100.0, 1),
                 util::format_double(m.mos.mean(), 2),
                 util::format_double(m.cloud_egress_mbps.mean(), 1),
                 util::format_double(m.fog_served_fraction.mean() * 100.0, 1)});
}

int cmd_run(const util::CliArgs& args) {
  args.require_known({"profile", "players", "cycles", "warmup", "seed", "csv", "arch"});
  const auto testbed = make_testbed(args);
  const std::string arch = args.get_string("arch", "cloudfog-a");
  auto system = make_arm(testbed, arch, static_cast<std::uint64_t>(args.get_int("seed", 42)));
  const auto& metrics = system.run(cycles_of(args));
  util::Table table("cloudfog run — " + arch);
  table.set_header({"arm", "latency (ms)", "continuity", "satisfied (%)", "MOS",
                    "cloud egress (Mbps)", "fog served (%)"});
  metrics_rows(table, arch, metrics);
  emit(args, table);
  return 0;
}

int cmd_compare(const util::CliArgs& args) {
  args.require_known({"profile", "players", "cycles", "warmup", "seed", "csv"});
  const auto testbed = make_testbed(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  util::Table table("cloudfog compare — all arms");
  table.set_header({"arm", "latency (ms)", "continuity", "satisfied (%)", "MOS",
                    "cloud egress (Mbps)", "fog served (%)"});
  for (const std::string arch : {"cloud", "cdn-small", "cdn", "cloudfog-b", "cloudfog-a"}) {
    auto system = make_arm(testbed, arch, seed);
    metrics_rows(table, arch, system.run(cycles_of(args)));
  }
  emit(args, table);
  return 0;
}

int cmd_coverage(const util::CliArgs& args) {
  args.require_known({"profile", "players", "seed", "csv", "supernodes"});
  const auto profile = profile_of(args);
  const auto seed = static_cast<std::uint64_t>(args.get_int(
      "seed", 42));
  const auto sns = static_cast<std::size_t>(args.get_int("supernodes", 0));
  emit(args, core::coverage_vs_supernodes(profile, {0, sns}, {30, 50, 70, 90, 110}, seed));
  return 0;
}

int cmd_economics(const util::CliArgs& args) {
  args.require_known({"csv"});
  emit(args, core::supernode_economics({4, 8, 12, 16, 20, 24}));
  emit(args, core::provider_savings({100, 200, 400, 800}));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::CliArgs args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string& command = args.positional().front();
    if (command == "run") return cmd_run(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "coverage") return cmd_coverage(args);
    if (command == "economics") return cmd_economics(args);
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const cloudfog::ConfigError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

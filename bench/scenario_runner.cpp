// bench_scenarios: runs declarative stress scenarios (data/scenarios/*.scn)
// through the scenario engine and enforces their acceptance envelopes.
//
//   bench_scenarios --all --smoke                   # CI suite, fast clamp
//   bench_scenarios --scenario flash-crowd          # one scenario, full size
//   bench_scenarios --all --smoke --no-reputation --expect-fail
//
// Exit status is the contract: 0 when every envelope held, 1 otherwise.
// --expect-fail inverts it (0 iff at least one envelope failed) — CI uses
// that to prove the adversary scenarios actually bite when the reputation
// defence is switched off. Observability flags (--trace, --report-json,
// --obs-off…) work like every other bench binary; each scenario
// contributes one "scenario.<name>" run summary with envelope.pass /
// envelope.margin.* stats to the run report.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scenario/scenario_engine.hpp"

int main(int argc, char** argv) {
  using namespace cloudfog;
  std::string dir = "data/scenarios";
  std::vector<std::string> picked;
  bool all = false;
  bool list = false;
  bool expect_fail = false;
  scenario::ScenarioRunOptions run_opts;
  // Scenario flags are consumed here; the rest go to the shared parser,
  // which rejects anything it does not know.
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      picked.push_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--list") == 0) {
      list = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      run_opts.smoke = true;
    } else if (std::strcmp(argv[i], "--no-reputation") == 0) {
      run_opts.reputation_override = false;
    } else if (std::strcmp(argv[i], "--expect-fail") == 0) {
      expect_fail = true;
    } else {
      rest.push_back(argv[i]);
    }
  }
  // Obs flags and --csv only: specs carry their own scale.
  const bool csv = bench::parse_args(static_cast<int>(rest.size()), rest.data()).csv;

  // Resolve the scenario files, sorted by name (directory iteration order
  // is filesystem-dependent; the report must not be).
  std::vector<std::filesystem::path> files;
  if (!picked.empty()) {
    for (const std::string& name : picked) {
      files.emplace_back(std::filesystem::path(dir) / (name + ".scn"));
    }
  } else {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".scn") files.push_back(entry.path());
    }
    if (ec) {
      std::cerr << "error: cannot list scenario directory " << dir << '\n';
      return 2;
    }
    std::sort(files.begin(), files.end());
    (void)all;  // running everything is also the default
  }
  if (files.empty()) {
    std::cerr << "error: no scenarios found in " << dir << '\n';
    return 2;
  }

  std::vector<scenario::ScenarioSpec> specs;
  for (const auto& file : files) {
    scenario::ScenarioSpec spec;
    std::string error;
    if (!scenario::load_scenario_file(file.string(), &spec, &error)) {
      std::cerr << "error: " << error << '\n';
      return 2;
    }
    specs.push_back(std::move(spec));
  }
  if (list) {
    for (const auto& spec : specs) {
      std::cout << spec.name << " — " << spec.description << '\n';
    }
    return 0;
  }

  util::Table summary("Scenario suite — acceptance envelopes");
  summary.set_header({"scenario", "verdict", "min margin", "continuity", "satisfied (%)",
                      "fallback (%)", "storm", "adversary served (%)"});
  int failed = 0;
  for (const auto& spec : specs) {
    scenario::ScenarioEngine engine(spec, run_opts);
    const scenario::ScenarioOutcome out = engine.run();
    if (!out.passed) ++failed;
    bench::print(scenario::envelope_table(out), csv);
    summary.add_row({out.name, out.passed ? "pass" : "FAIL",
                     util::format_double(out.envelope.checks.empty() ? 0.0
                                                                     : out.envelope.min_margin,
                                         3),
                     util::format_double(out.metric("continuity"), 3),
                     util::format_double(out.metric("satisfied_pct"), 1),
                     util::format_double(out.metric("cloud_fallback_pct"), 2),
                     util::format_double(out.metric("migration_storm"), 0),
                     util::format_double(out.metric("adversary_served_pct"), 1)});
  }
  bench::print(summary, csv);

  if (expect_fail) {
    if (failed == 0) {
      std::cerr << "error: expected at least one envelope failure, every scenario passed\n";
      return 1;
    }
    std::cout << failed << " scenario(s) failed as expected\n";
    return 0;
  }
  return failed == 0 ? 0 : 1;
}

// Evening-peak scenario: a surge of arrivals at 8 pm stresses the fixed
// supernode pool; dynamic provisioning forecasts the surge (seasonal
// ARIMA over 4-hour windows) and pre-deploys supernodes.
//
// Mirrors the §4.3.4 experiment at a single arrival rate, printing the
// per-subcycle cloud egress so the peak is visible.
//
//   $ ./evening_peak
#include <iostream>

#include "core/baselines.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "sim/cycle_config.hpp"
#include "util/table.hpp"

int main() {
  using namespace cloudfog;

  const core::Testbed testbed(core::TestbedConfig::peersim(4000), /*seed=*/21);

  auto make = [&](bool provisioning) {
    core::SystemConfig cfg =
        core::cloudfog_basic_config(testbed, core::default_supernode_count(testbed));
    cfg.workload = core::WorkloadMode::kArrivalRates;
    cfg.arrivals = core::ArrivalWorkload{/*offpeak=*/5.0, /*peak=*/40.0};
    cfg.fixed_deployment = 150;  // deliberately tight fixed pool
    cfg.strategies.provisioning = provisioning;
    return core::System(testbed, cfg, 21);
  };

  core::System fixed_sys = make(false);
  core::System prov_sys = make(true);

  // Run nine days so the weekly SARIMA season is learnable; show day 9.
  util::Table table("Cloud egress through the day (day 9, Mbps)");
  table.set_header({"hour", "fixed pool", "provisioned"});
  for (int day = 1; day <= 9; ++day) {
    fixed_sys.begin_cycle(day);
    prov_sys.begin_cycle(day);
    for (int sub = 1; sub <= sim::CycleConfig::subcycles_per_cycle; ++sub) {
      const bool peak = sim::is_peak_subcycle(sub);
      const auto q_fixed = fixed_sys.run_subcycle(day, sub, day < 9, peak);
      const auto q_prov = prov_sys.run_subcycle(day, sub, day < 9, peak);
      if (day == 9 && sub % 2 == 0) {
        table.add_row({std::to_string(sub),
                       util::format_double(q_fixed.cloud_egress_mbps, 1),
                       util::format_double(q_prov.cloud_egress_mbps, 1)});
      }
    }
    fixed_sys.end_cycle(day);
    prov_sys.end_cycle(day);
  }
  table.print(std::cout);

  std::cout << "With a fixed pool the 8 pm surge spills onto the cloud;\n"
               "the provisioner pre-deploys supernodes and absorbs it in the fog.\n";
  return 0;
}

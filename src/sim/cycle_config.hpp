// The paper's evaluation schedule (§4.1): the experiments run for 28
// cycles, "each cycle representing one day's gaming activities; each cycle
// is further divided into 24 one-hour subcycles". Peak hours are
// subcycles 20–24 (8 pm–12 am), and the first cycles warm the system up
// and are left out of the reported averages. core::System::run walks this
// schedule and rejects one that leaves no measured cycle.
#pragma once

namespace cloudfog::sim {

struct CycleConfig {
  int total_cycles = 28;      ///< days simulated
  int warmup_cycles = 21;     ///< cycles excluded from reported averages
  int subcycles_per_cycle = 24;
  double subcycle_seconds = 3600.0;
  int peak_start_subcycle = 20;  ///< first peak subcycle (1-based, inclusive)
  int peak_end_subcycle = 24;    ///< last peak subcycle (1-based, inclusive)
};

}  // namespace cloudfog::sim

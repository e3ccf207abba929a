// The paper's evaluation schedule (§4.1): the experiments run for 28
// cycles, "each cycle representing one day's gaming activities; each cycle
// is further divided into 24 one-hour subcycles". Peak hours are
// subcycles 20–24 (8 pm–12 am), and the first cycles warm the system up
// and are left out of the reported averages. core::System::run walks this
// schedule and rejects one that leaves no measured cycle.
// The day's shape is fixed by the paper, so it is stated once, as
// constants that every clock reads; only the run length is configurable.
#pragma once

namespace cloudfog::sim {

struct CycleConfig {
  static constexpr int subcycles_per_cycle = 24;     ///< one-hour subcycles per day
  static constexpr double subcycle_seconds = 3600.0;
  static constexpr int peak_start_subcycle = 20;     ///< first peak subcycle (1-based, inclusive)
  static constexpr int peak_end_subcycle = 24;       ///< last peak subcycle (1-based, inclusive)
  static_assert(1 < peak_start_subcycle && peak_start_subcycle <= peak_end_subcycle &&
                    peak_end_subcycle <= subcycles_per_cycle,
                "the peak window lies inside the day and leaves an off-peak start");

  int total_cycles = 28;   ///< days simulated
  int warmup_cycles = 21;  ///< cycles excluded from reported averages
};

/// Minutes per subcycle: the arrival workload's per-minute rates scale by it.
inline constexpr double kMinutesPerSubcycle = CycleConfig::subcycle_seconds / 60.0;
static_assert(kMinutesPerSubcycle == 60.0);

/// True for the evening-peak subcycles of every day.
constexpr bool is_peak_subcycle(int subcycle) {
  return subcycle >= CycleConfig::peak_start_subcycle &&
         subcycle <= CycleConfig::peak_end_subcycle;
}

/// Sim time (s) at which subcycle `subcycle` of day `day` opens; both are
/// 1-based and day 1, subcycle 1 opens at 0 s. A subcycle past the last
/// counts on into the following days, so the end of a subcycle is the
/// start of `subcycle + 1`.
constexpr double subcycle_start_s(int day, int subcycle) {
  return static_cast<double>((day - 1) * CycleConfig::subcycles_per_cycle + (subcycle - 1)) *
         CycleConfig::subcycle_seconds;
}

}  // namespace cloudfog::sim

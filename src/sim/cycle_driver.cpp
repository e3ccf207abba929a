#include "sim/cycle_driver.hpp"

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::sim {

CycleDriver::CycleDriver(Simulator& sim, CycleConfig cfg, obs::Recorder& rec)
    : sim_(sim), cfg_(cfg), rec_(rec) {
  CLOUDFOG_REQUIRE(cfg.total_cycles > 0, "need at least one cycle");
  CLOUDFOG_REQUIRE(cfg.warmup_cycles >= 0 && cfg.warmup_cycles < cfg.total_cycles,
                   "warm-up must leave at least one measured cycle");
  CLOUDFOG_REQUIRE(cfg.subcycles_per_cycle > 0, "need at least one subcycle");
  CLOUDFOG_REQUIRE(cfg.subcycle_seconds > 0.0, "subcycle length must be positive");
  CLOUDFOG_REQUIRE(cfg.peak_start_subcycle >= 1 &&
                       cfg.peak_end_subcycle <= cfg.subcycles_per_cycle &&
                       cfg.peak_start_subcycle <= cfg.peak_end_subcycle,
                   "peak window out of range");
}

void CycleDriver::on_subcycle(SubcycleHook hook) {
  CLOUDFOG_REQUIRE(static_cast<bool>(hook), "null subcycle hook");
  subcycle_hooks_.push_back(std::move(hook));
}

void CycleDriver::on_cycle_end(CycleHook hook) {
  CLOUDFOG_REQUIRE(static_cast<bool>(hook), "null cycle hook");
  cycle_hooks_.push_back(std::move(hook));
}

bool CycleDriver::is_peak_subcycle(int subcycle) const {
  return subcycle >= cfg_.peak_start_subcycle && subcycle <= cfg_.peak_end_subcycle;
}

void CycleDriver::run() {
  for (int cycle = 1; cycle <= cfg_.total_cycles; ++cycle) {
    const bool warmup = cycle <= cfg_.warmup_cycles;
    for (int sub = 1; sub <= cfg_.subcycles_per_cycle; ++sub) {
      CyclePoint point;
      point.cycle = cycle;
      point.subcycle = sub;
      point.warmup = warmup;
      point.peak = is_peak_subcycle(sub);
      point.start_time = sim_.now();
      if (rec_.enabled()) {
        rec_.set_sim_time(point.start_time);
        rec_.trace(obs::EventKind::kSubcycle, cycle, sub);
      }
      for (const auto& hook : subcycle_hooks_) hook(point);
      {
        CLOUDFOG_TIMED_SCOPE(rec_, "sim.drain");
        sim_.run_until(point.start_time + cfg_.subcycle_seconds);
      }
    }
    for (const auto& hook : cycle_hooks_) hook(cycle, warmup);
  }
}

}  // namespace cloudfog::sim

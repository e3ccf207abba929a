// Executes a FaultPlan against a live simulation.
//
// arm() schedules one inject event per spec on the owning sim::Simulator;
// a timed fault schedules its clear event the moment it is applied. The
// injector keeps the active-fault list and rebuilds the FaultState
// projection on every change, so overlapping faults compose and clear in
// any order. Crash faults are delegated to the apply/clear hooks (the
// System owns supernode liveness and the displacement machinery); the hook
// resolves kAnyTarget victims and returns the concrete target so the
// matching clear names the same node.
//
// Every apply/clear emits a kFaultInjected / kFaultCleared trace event and
// bumps the fault.injected / fault.cleared counters — the replayable
// chaos log the acceptance criteria check byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/fault_state.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace cloudfog::fault {

class FaultInjector {
 public:
  /// Called when a crash fault fires; receives the spec and returns the
  /// resolved victim (may differ from spec.target when it is kAnyTarget).
  /// Returning kAnyTarget means no victim was available; the fault is
  /// dropped and no clear is scheduled.
  using ApplyHook = std::function<std::size_t(const FaultSpec&)>;
  /// Called when a timed crash fault clears, with the resolved victim.
  using ClearHook = std::function<void(const FaultSpec&, std::size_t target)>;

  /// Reports injected/cleared faults into `rec`.
  FaultInjector(sim::Simulator& sim, FaultState& state, FaultPlan plan,
                ApplyHook on_crash, ClearHook on_crash_cleared, obs::Recorder& rec);

  /// Schedules every spec in the plan. Call once, before running the sim.
  void arm();

  std::uint64_t injected() const { return injected_; }
  std::uint64_t cleared() const { return cleared_; }
  std::size_t active_count() const { return active_.size(); }
  const FaultPlan& plan() const { return plan_; }

 private:
  struct ActiveFault {
    FaultSpec spec;
    std::size_t resolved_target = kAnyTarget;
    std::uint64_t id = 0;  ///< stable handle linking apply to clear
  };

  void apply(const FaultSpec& spec);
  void clear(std::uint64_t id);
  /// Re-derives the FaultState projection from `active_` (crashes excluded:
  /// they live in SupernodeState::failed, owned by the hooks).
  void rebuild_state();
  void emit(bool injected, const FaultSpec& spec, std::size_t target);

  sim::Simulator& sim_;
  FaultState& state_;
  FaultPlan plan_;
  ApplyHook on_crash_;
  ClearHook on_crash_cleared_;
  obs::Recorder& rec_;
  std::vector<ActiveFault> active_;
  std::uint64_t next_id_ = 1;
  std::uint64_t injected_ = 0;
  std::uint64_t cleared_ = 0;
  bool armed_ = false;
};

}  // namespace cloudfog::fault

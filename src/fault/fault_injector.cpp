#include "fault/fault_injector.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "util/require.hpp"

namespace cloudfog::fault {

namespace {

struct InjectorObs {
  obs::CounterId injected;
  obs::CounterId cleared;
  explicit InjectorObs(obs::Registry& reg) {
    injected = reg.counter("fault.injected");
    cleared = reg.counter("fault.cleared");
  }
};

const InjectorObs& injector_obs(obs::Recorder& rec) {
  static const InjectorObs handles(rec.registry());
  return handles;
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, FaultState& state, FaultPlan plan,
                             ApplyHook on_crash, ClearHook on_crash_cleared,
                             obs::Recorder& rec)
    : sim_(sim),
      state_(state),
      plan_(std::move(plan)),
      on_crash_(std::move(on_crash)),
      on_crash_cleared_(std::move(on_crash_cleared)),
      rec_(rec) {
  CLOUDFOG_REQUIRE(static_cast<bool>(on_crash_), "null crash apply hook");
  CLOUDFOG_REQUIRE(static_cast<bool>(on_crash_cleared_), "null crash clear hook");
}

void FaultInjector::arm() {
  CLOUDFOG_REQUIRE(!armed_, "fault plan already armed");
  armed_ = true;
  for (const FaultSpec& spec : plan_.specs()) {
    // The injector outlives the simulator it schedules on (both are owned
    // by the System, injector declared after), so `this` capture is safe.
    sim_.schedule_at(spec.at_s, [this, spec] { apply(spec); });
  }
}

void FaultInjector::apply(const FaultSpec& spec) {
  std::size_t target = spec.target;
  if (spec.kind == FaultKind::kSupernodeCrash) {
    target = on_crash_(spec);
    if (target == kAnyTarget) return;  // no eligible victim — fault is moot
  }
  ActiveFault active;
  active.spec = spec;
  active.resolved_target = target;
  active.id = next_id_++;
  active_.push_back(active);
  ++injected_;
  rebuild_state();
  emit(true, spec, target);
  if (!spec.permanent()) {
    const std::uint64_t id = active.id;
    sim_.schedule_at(spec.at_s + spec.duration_s, [this, id] { clear(id); });
  }
}

void FaultInjector::clear(std::uint64_t id) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [id](const ActiveFault& f) { return f.id == id; });
  if (it == active_.end()) return;
  const ActiveFault ended = *it;
  active_.erase(it);
  ++cleared_;
  if (ended.spec.kind == FaultKind::kSupernodeCrash) {
    on_crash_cleared_(ended.spec, ended.resolved_target);
  }
  rebuild_state();
  emit(false, ended.spec, ended.resolved_target);
}

void FaultInjector::rebuild_state() {
  state_.clear_faults();
  bool any = false;
  for (const ActiveFault& f : active_) {
    switch (f.spec.kind) {
      case FaultKind::kSupernodeCrash:
        // Liveness lives in SupernodeState::failed via the hooks; the
        // projection only marks that faults are in flight.
        any = true;
        break;
      case FaultKind::kSlowNode:
        state_.add_slow_ms(f.resolved_target, f.spec.magnitude);
        any = true;
        break;
      case FaultKind::kNetworkPartition:
        state_.add_partition(f.spec.target, f.spec.target_b);
        any = true;
        break;
      case FaultKind::kPacketLossBurst:
        state_.add_channel_loss(f.spec.magnitude);
        any = true;
        break;
      case FaultKind::kMessageDelayBurst:
        state_.add_channel_delay(f.spec.magnitude);
        any = true;
        break;
      case FaultKind::kProbeBlackhole:
        state_.add_blackhole(f.resolved_target);
        any = true;
        break;
    }
  }
  state_.set_any_active(any);
}

void FaultInjector::emit(bool injected, const FaultSpec& spec, std::size_t target) {
  if (!rec_.enabled()) return;
  rec_.registry().add(injected ? injector_obs(rec_).injected : injector_obs(rec_).cleared);
  const auto subject = target == kAnyTarget ? std::int64_t{-1}
                                            : static_cast<std::int64_t>(target);
  const auto object = spec.target_b == kAnyTarget
                          ? std::int64_t{-1}
                          : static_cast<std::int64_t>(spec.target_b);
  rec_.trace_at(sim_.now(),
                injected ? obs::EventKind::kFaultInjected : obs::EventKind::kFaultCleared,
                subject, object, spec.magnitude, fault_kind_note(spec.kind));
}

}  // namespace cloudfog::fault

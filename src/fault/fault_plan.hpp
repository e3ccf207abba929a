// Deterministic fault schedules.
//
// A FaultPlan is a time-ordered list of typed FaultSpecs covering the whole
// run horizon, generated up front from a seed (or handed in explicitly).
// Because the schedule is data — not decisions made while the simulation
// runs — the same (plan seed, system seed) pair always produces the exact
// same fault/recovery sequence, and a chaos run can be replayed from a CI
// log via the CLOUDFOG_FAULT_SEED override.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/note_table.hpp"
#include "util/rng.hpp"

namespace cloudfog::fault {

enum class FaultKind : std::uint8_t {
  kSupernodeCrash,    ///< fail-stop: the node vanishes without notice (§3.2.2)
  kSlowNode,          ///< render/encode latency inflated by `magnitude` ms
  kNetworkPartition,  ///< regions `target` and `target_b` cannot reach each other
  kPacketLossBurst,   ///< cloud→supernode update channel drops `magnitude` of packets
  kMessageDelayBurst, ///< cloud→supernode updates delayed by `magnitude` ms
  kProbeBlackhole,    ///< node silently drops probes (looks dead, is not)
};

const char* fault_kind_name(FaultKind kind);

/// `fault_kind_name(kind)` as an interned trace note (allocation-free).
obs::NoteId fault_kind_note(FaultKind kind);

/// Target wildcard: the executor picks a victim at apply time (e.g. a
/// supernode that is actually serving players, for maximum blast radius).
inline constexpr std::size_t kAnyTarget = static_cast<std::size_t>(-1);

struct FaultSpec {
  FaultKind kind = FaultKind::kSupernodeCrash;
  double at_s = 0.0;       ///< injection time on the simulation clock
  double duration_s = 0.0; ///< <= 0 means the fault never clears on its own
  /// Supernode index, or region index for partitions, or kAnyTarget.
  std::size_t target = kAnyTarget;
  /// Second region of a partition; unused by other kinds.
  std::size_t target_b = kAnyTarget;
  /// Kind-specific intensity: added ms for slow/delay, loss fraction for
  /// packet loss; unused by crash/partition/blackhole.
  double magnitude = 0.0;

  bool permanent() const { return duration_s <= 0.0; }
};

/// Relative weights of each fault kind in a generated plan.
struct FaultMix {
  double crash = 1.0;
  double slow_node = 1.0;
  double partition = 0.25;
  double loss_burst = 0.5;
  double delay_burst = 0.5;
  double blackhole = 0.25;

  double total() const {
    return crash + slow_node + partition + loss_burst + delay_burst + blackhole;
  }
};

/// Axis-aligned geographic box on the simulation plane, in kilometres.
/// Used to select correlated fault victims ("the ISP serving this region
/// went down") instead of uniform-random fleet members.
struct GeoBox {
  double x0_km = 0.0;
  double y0_km = 0.0;
  double x1_km = 0.0;
  double y1_km = 0.0;

  bool contains(double x_km, double y_km) const {
    return x_km >= x0_km && x_km <= x1_km && y_km >= y0_km && y_km <= y1_km;
  }
  double center_x_km() const { return 0.5 * (x0_km + x1_km); }
  double center_y_km() const { return 0.5 * (y0_km + y1_km); }
};

/// A supernode's position on the plane, indexed like the fleet. The fault
/// layer cannot depend on net::GeoPoint (it sits below net), so it keeps
/// its own coordinate pair.
struct NodePosition {
  double x_km = 0.0;
  double y_km = 0.0;
};

/// Indices of the positions that fall inside `box`, ascending.
std::vector<std::size_t> nodes_in_box(const std::vector<NodePosition>& positions,
                                      const GeoBox& box);

struct FaultPlanConfig {
  /// Master switch. When false the injector is never constructed and the
  /// simulation byte-for-byte matches a build without the fault layer.
  bool enabled = false;
  /// Length of the schedule (seconds of sim time to cover).
  double horizon_s = 0.0;
  /// Mean total fault arrival rate across all kinds.
  double faults_per_hour = 0.0;
  FaultMix mix;
  /// Mean of the exponential fault-duration draw (clamped to >= 60 s).
  double mean_duration_s = 1800.0;
  /// Latency added by a slow-node fault (ms).
  double slow_ms = 40.0;
  /// Delay added by an update-channel delay burst (ms).
  double delay_ms = 120.0;
  /// Loss fraction of an update-channel loss burst.
  double loss_fraction = 0.3;
  /// Target spaces for random victim selection.
  std::size_t supernode_count = 0;
  std::size_t region_count = 0;
  /// Plan seed; 0 = derive from the owning system's seed.
  std::uint64_t seed = 0;
  /// Hand-written specs merged into the generated schedule (used by the
  /// Fig. 9 and failure_rate_sweep crash bursts and the scenario engine).
  std::vector<FaultSpec> extra_specs;
  /// Geographic victim selection. When `target_box` is set, generated
  /// faults that name a random supernode victim (crash, slow node, probe
  /// blackhole) draw uniformly from the supernodes whose `positions` entry
  /// falls inside the box instead of the whole fleet. `positions` is
  /// indexed like the fleet; an empty vector or a box containing no nodes
  /// falls back to whole-fleet selection.
  std::vector<NodePosition> positions;
  std::optional<GeoBox> target_box;
};

class FaultPlan {
 public:
  /// Draws a schedule from `cfg`: per-kind Poisson arrival walks over the
  /// horizon with exponential durations, merged with cfg.extra_specs and
  /// sorted by injection time (stable for equal times).
  static FaultPlan generate(const FaultPlanConfig& cfg);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }
  std::size_t size() const { return specs_.size(); }

 private:
  std::vector<FaultSpec> specs_;
};

/// Compiles a correlated regional-outage burst ("the ISP serving this box
/// went dark"): `crash_fraction` of the in-box supernodes crash at `at_s`
/// and recover when the outage lifts, and the cloud→supernode update
/// channel suffers a loss + delay burst for the duration. Victim choice is
/// seeded, so the same (positions, box, seed) triple always fails the same
/// nodes. Returns an empty vector when the box contains no nodes.
std::vector<FaultSpec> regional_outage_specs(const std::vector<NodePosition>& positions,
                                             const GeoBox& box, double at_s,
                                             double duration_s, double crash_fraction,
                                             double loss_fraction, double delay_ms,
                                             std::uint64_t seed);

/// Resolves the effective plan seed: the CLOUDFOG_FAULT_SEED environment
/// variable wins (so CI logs reproduce locally), else `fallback`.
std::uint64_t fault_seed_from_env(std::uint64_t fallback);

}  // namespace cloudfog::fault

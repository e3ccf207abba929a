// Receiver-driven encoding-rate adaptation (paper §3.3, Eqs. 8–12).
//
// The receiver tracks its buffer occupancy in segments,
//   r = s(t_k) / τ                                   (Eq. 9)
// and asks the sender to change the encoding bitrate when
//   r > (1 + β) / ρ   → one quality level up          (Eq. 10, ρ-scaled)
//   r < θ / ρ         → one quality level down        (Eq. 12, ρ-scaled)
// where β = max_i (b_{i+1} − b_i)/b_i (Eq. 11), θ is the adjust-down
// threshold, and ρ ∈ (0,1] is the game's latency-tolerance degree:
// latency-sensitive games (small ρ) get higher thresholds, i.e. both a
// bigger safety buffer before stepping up and an earlier step down.
// To suppress oscillation, an adjustment fires only after the condition
// holds for `consecutive_required` successive estimates.
#pragma once

#include "game/game_catalog.hpp"
#include "util/rng.hpp"
#include "video/playback_buffer.hpp"
#include "video/segment.hpp"

namespace cloudfog::video {

struct RateAdapterConfig {
  double theta = 0.5;            ///< θ — adjust-down threshold (θ ≤ 1)
  int consecutive_required = 3;  ///< estimates that must agree before acting
  /// Up-switches use a longer confirmation window than down-switches:
  /// §3.3's anti-fluctuation rule, asymmetric because a premature step up
  /// on a shared bottleneck re-congests it for every session at once.
  int consecutive_up_required = 8;
  /// When the up condition is confirmed, the switch fires only with this
  /// probability (the streak resets otherwise). Receivers sharing one
  /// bottleneck all see surplus at the same moment; probabilistic
  /// up-stepping staggers them so one probes the headroom at a time
  /// instead of the whole group re-congesting the link in lockstep.
  double up_probability = 0.25;
  /// A delivery rate below this fraction of the playback rate counts as a
  /// congestion (adjust-down) signal even while the buffer is still above
  /// θ — Eq. 12's proactive response to elongated transmission times.
  double deficit_fraction = 0.98;
  double segment_duration_s = 1.0;
  double buffer_capacity_segments = 8.0;
  bool enabled = true;  ///< players may disable adaptation (§3.3)
};

enum class RateDecision { kHold, kUp, kDown };

class RateAdapter {
 public:
  /// Streams `game` starting at its default quality level; the adapter
  /// never exceeds that level (it is the game's latency budget). `rng`
  /// drives the probabilistic up-stepping; pass per-session streams for
  /// desynchronization.
  RateAdapter(const game::GameCatalog& catalog, game::GameId game, RateAdapterConfig cfg,
              util::Rng rng = util::Rng(0x5eed));

  const game::QualityLevel& current_level() const { return *level_; }
  double current_bitrate_kbps() const { return level_->bitrate_kbps; }
  double buffered_segments() const;
  const RateAdapterConfig& config() const { return cfg_; }

  /// Up/down trigger thresholds after ρ scaling.
  double up_threshold() const;
  double down_threshold() const;

  struct StepOutcome {
    RateDecision decision = RateDecision::kHold;
    double buffered_segments = 0.0;
    double starved_bits = 0.0;
  };

  /// Advances one estimation interval of `dt` seconds during which the
  /// path delivered `download_bps`. Playback consumes at the current
  /// encoding bitrate. May change the current level.
  StepOutcome step(double dt, double download_bps);

 private:
  void switch_level(const game::QualityLevel& next);

  const game::GameCatalog& catalog_;
  RateAdapterConfig cfg_;
  const game::QualityLevel* level_;  // points into the catalog's ladder
  int max_level_;                    // the game's default level
  double rho_;
  double beta_;
  PlaybackBuffer buffer_;
  util::Rng rng_;
  int up_streak_ = 0;
  int down_streak_ = 0;
};

}  // namespace cloudfog::video

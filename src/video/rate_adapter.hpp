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
  double up_threshold() const { return (1.0 + beta_) / rho_; }
  double down_threshold() const { return cfg_.theta / rho_; }

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
  SegmentSpec segment_spec() const {
    return SegmentSpec{cfg_.segment_duration_s, level_->bitrate_kbps};
  }
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

// Defined here so the QoS engine's per-substep loop inlines it; only a
// level switch calls out of line.
inline RateAdapter::StepOutcome RateAdapter::step(double dt, double download_bps) {
  StepOutcome out;
  const double playback_bps = level_->bitrate_kbps * 1000.0;
  const auto buf = buffer_.step(dt, download_bps, playback_bps);
  out.starved_bits = buf.starved_bits;
  const double r = segments_from_bits(buf.buffered_bits, segment_spec());
  out.buffered_segments = r;
  if (!cfg_.enabled) return out;

  // Eq. 10's premise is that the buffer is *growing* — "the downloading
  // rate is faster than the playback rate" — so a full-but-draining buffer
  // must not confirm an up-step. Conversely Eq. 12 reacts to congestion,
  // where "the segment transmission time is typically much longer than
  // usual": a sustained delivery deficit counts as a down signal even
  // before the buffer has drained to θ.
  const bool surplus = download_bps >= playback_bps;
  const bool deficit = download_bps < cfg_.deficit_fraction * playback_bps;
  if (r > up_threshold() && surplus) {
    ++up_streak_;
    down_streak_ = 0;
  } else if (r < down_threshold() || deficit) {
    ++down_streak_;
    up_streak_ = 0;
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  if (up_streak_ >= cfg_.consecutive_up_required && level_->level < max_level_) {
    if (rng_.chance(cfg_.up_probability)) {
      switch_level(catalog_.ladder().step_up(level_->level));
      out.decision = RateDecision::kUp;
    } else {
      up_streak_ = 0;  // lost the draw; re-confirm before trying again
    }
  } else if (down_streak_ >= cfg_.consecutive_required &&
             level_->level > catalog_.ladder().min_level()) {
    switch_level(catalog_.ladder().step_down(level_->level));
    out.decision = RateDecision::kDown;
  }
  return out;
}

}  // namespace cloudfog::video

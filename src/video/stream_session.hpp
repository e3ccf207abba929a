// One game-video streaming session: a player watching one game from one
// serving entity (supernode, CDN server or cloud datacenter).
//
// The QoS engine owns path computation (propagation, load shares, jitter
// inflation); the session owns the receiver state — the rate adapter and
// the running continuity — and converts a path observation into a QoS
// sample for the interval.
#pragma once

#include "game/game_catalog.hpp"
#include "game/quality_ladder.hpp"
#include "util/require.hpp"
#include "video/continuity.hpp"
#include "video/rate_adapter.hpp"

namespace cloudfog::video {

/// What the network gave this stream over an observation interval.
struct PathObservation {
  /// Deterministic end-to-end response latency in ms (playout/processing
  /// + action path + video path + transfer), computed by the QoS engine
  /// for the session's *current* bitrate. Reported as the Fig. 7 metric.
  double response_latency_ms = 0.0;
  /// Delivery latency of a video packet (serving entity → player one-way
  /// + transfer), the quantity the continuity requirement applies to:
  /// §4.1 counts "packets arrived within the required response latency".
  double video_latency_ms = 0.0;
  /// Mean per-packet jitter over the interval (ms), congestion-inflated.
  double jitter_mean_ms = 6.0;
  /// Sustainable delivery rate toward the player (kbps).
  double throughput_kbps = 0.0;
  /// Interval length in seconds.
  double interval_s = 1.0;
  /// Fraction of packets lost outright on top of lateness (injected
  /// update-channel loss; 0 leaves the continuity computation untouched).
  double extra_loss = 0.0;
};

struct QosSample {
  double response_latency_ms = 0.0;
  double continuity = 1.0;       ///< on-time fraction over this interval
  double bitrate_kbps = 0.0;     ///< encoding bitrate used this interval
  RateDecision decision = RateDecision::kHold;
};

class StreamSession {
 public:
  StreamSession(const game::GameCatalog& catalog, game::GameId game,
                RateAdapterConfig adapter_cfg, util::Rng rng = util::Rng(0x5eed));

  game::GameId game_id() const { return game_; }
  const game::GameInfo& game_info() const;
  double current_bitrate_kbps() const { return adapter_.current_bitrate_kbps(); }
  int current_quality_level() const { return adapter_.current_level().level; }
  /// Whether the rate adapter may switch the bitrate (§3.3: players may
  /// disable adaptation). A session that does not adapt keeps its bitrate
  /// for life.
  bool adapts() const { return adapter_.config().enabled; }

  /// Processes one observation interval; updates adapter + continuity.
  /// Exactly apply(path, continuity_for(path)).
  QosSample observe(const PathObservation& path);

  /// The interval's packet continuity — a pure function of the path, the
  /// game's latency requirement and the current bitrate (no state update).
  /// Split out so the QoS engine can memoize it per unchanged path.
  double continuity_for(const PathObservation& path) const;

  /// Applies an observation whose continuity was already computed (or
  /// memoized); updates the meter and steps the adapter.
  QosSample apply(const PathObservation& path, double continuity);

  /// Session-lifetime continuity (packet-weighted).
  double session_continuity() const { return meter_.continuity(); }
  bool satisfied() const { return meter_.satisfied(); }

  /// Charges a streaming interruption: `outage_s` seconds during which no
  /// packet arrived on time (migration gap, fault-driven fallback). Uses
  /// the same packet weighting as observe(), so the outage dilutes the
  /// lifetime continuity exactly as a fully-late interval would.
  void charge_outage(double outage_s);

 private:
  const game::GameCatalog& catalog_;
  game::GameId game_;
  RateAdapter adapter_;
  ContinuityMeter meter_;
};

// The per-substep session update, defined here so the QoS engine's loop
// compiles to one body.
inline double StreamSession::continuity_for(const PathObservation& path) const {
  double continuity =
      packet_continuity(path.video_latency_ms, game_info().latency_requirement_ms,
                        path.jitter_mean_ms, path.throughput_kbps,
                        adapter_.current_bitrate_kbps());
  if (path.extra_loss > 0.0) {
    // Injected channel loss removes packets regardless of timeliness. The
    // branch keeps the no-fault floating-point path bit-identical.
    continuity *= 1.0 - path.extra_loss;
  }
  return continuity;
}

inline QosSample StreamSession::apply(const PathObservation& path, double continuity) {
  CLOUDFOG_REQUIRE(path.interval_s > 0.0, "interval must be positive");
  QosSample sample;
  sample.bitrate_kbps = adapter_.current_bitrate_kbps();
  sample.response_latency_ms = path.response_latency_ms;
  sample.continuity = continuity;

  const double packets = game::kFramesPerSecond * path.interval_s;
  meter_.add(sample.continuity, packets);

  const auto outcome = adapter_.step(path.interval_s, path.throughput_kbps * 1000.0);
  sample.decision = outcome.decision;
  return sample;
}

}  // namespace cloudfog::video

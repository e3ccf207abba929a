#include "video/stream_session.hpp"

#include "game/quality_ladder.hpp"
#include "util/require.hpp"

namespace cloudfog::video {

StreamSession::StreamSession(const game::GameCatalog& catalog, game::GameId game,
                             RateAdapterConfig adapter_cfg, util::Rng rng)
    : catalog_(catalog), game_(game), adapter_(catalog, game, adapter_cfg, rng) {}

const game::GameInfo& StreamSession::game_info() const { return catalog_.game(game_); }

QosSample StreamSession::observe(const PathObservation& path) {
  return apply(path, continuity_for(path));
}

void StreamSession::charge_outage(double outage_s) {
  CLOUDFOG_REQUIRE(outage_s >= 0.0, "outage must be non-negative");
  if (outage_s == 0.0) return;
  meter_.add(0.0, game::kFramesPerSecond * outage_s);
}

}  // namespace cloudfog::video

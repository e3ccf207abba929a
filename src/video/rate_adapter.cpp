#include "video/rate_adapter.hpp"

#include "util/require.hpp"

namespace cloudfog::video {

RateAdapter::RateAdapter(const game::GameCatalog& catalog, game::GameId game,
                         RateAdapterConfig cfg, util::Rng rng)
    : catalog_(catalog),
      cfg_(cfg),
      level_(&catalog.ladder().at_level(catalog.game(game).default_quality_level)),
      max_level_(catalog.game(game).default_quality_level),
      rho_(catalog.game(game).latency_tolerance),
      beta_(catalog.ladder().adjust_up_factor()),
      buffer_(cfg.buffer_capacity_segments * segment_bits(segment_spec())),
      rng_(rng) {
  CLOUDFOG_REQUIRE(cfg.theta > 0.0 && cfg.theta <= 1.0, "θ must be in (0,1]");
  CLOUDFOG_REQUIRE(cfg.consecutive_required >= 1, "need at least one confirmation");
  CLOUDFOG_REQUIRE(cfg.consecutive_up_required >= 1, "need at least one confirmation");
  CLOUDFOG_REQUIRE(cfg.up_probability > 0.0 && cfg.up_probability <= 1.0,
                   "up probability must be in (0,1]");
  CLOUDFOG_REQUIRE(cfg.segment_duration_s > 0.0, "segment duration must be positive");
  CLOUDFOG_REQUIRE(cfg.buffer_capacity_segments > (1.0 + beta_) / rho_,
                   "buffer capacity must exceed the adjust-up threshold or the "
                   "adapter can never step up");
}

double RateAdapter::buffered_segments() const {
  return segments_from_bits(buffer_.buffered_bits(), segment_spec());
}

void RateAdapter::switch_level(const game::QualityLevel& next) {
  if (next.level == level_->level) return;
  level_ = &catalog_.ladder().at_level(next.level);
  // Buffered bits persist across a switch; capacity is re-expressed in the
  // new segment size so `buffer_capacity_segments` stays the bound.
  buffer_.set_capacity(cfg_.buffer_capacity_segments * segment_bits(segment_spec()));
  up_streak_ = 0;
  down_streak_ = 0;
}

}  // namespace cloudfog::video

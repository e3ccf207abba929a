#include "video/rate_adapter.hpp"

#include "util/require.hpp"

namespace cloudfog::video {

namespace {

SegmentSpec spec_for(const game::QualityLevel& level, double duration_s) {
  return SegmentSpec{duration_s, level.bitrate_kbps};
}

}  // namespace

RateAdapter::RateAdapter(const game::GameCatalog& catalog, game::GameId game,
                         RateAdapterConfig cfg, util::Rng rng)
    : catalog_(catalog),
      cfg_(cfg),
      level_(&catalog.ladder().at_level(catalog.game(game).default_quality_level)),
      max_level_(catalog.game(game).default_quality_level),
      rho_(catalog.game(game).latency_tolerance),
      beta_(catalog.ladder().adjust_up_factor()),
      buffer_(cfg.buffer_capacity_segments *
              segment_bits(spec_for(*level_, cfg.segment_duration_s))),
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
  return segments_from_bits(buffer_.buffered_bits(),
                            spec_for(*level_, cfg_.segment_duration_s));
}

double RateAdapter::up_threshold() const { return (1.0 + beta_) / rho_; }

double RateAdapter::down_threshold() const { return cfg_.theta / rho_; }

void RateAdapter::switch_level(const game::QualityLevel& next) {
  if (next.level == level_->level) return;
  level_ = &catalog_.ladder().at_level(next.level);
  // Buffered bits persist across a switch; capacity is re-expressed in the
  // new segment size so `buffer_capacity_segments` stays the bound.
  buffer_.set_capacity(cfg_.buffer_capacity_segments *
                       segment_bits(spec_for(*level_, cfg_.segment_duration_s)));
  up_streak_ = 0;
  down_streak_ = 0;
}

RateAdapter::StepOutcome RateAdapter::step(double dt, double download_bps) {
  StepOutcome out;
  const double playback_bps = level_->bitrate_kbps * 1000.0;
  const auto buf = buffer_.step(dt, download_bps, playback_bps);
  out.starved_bits = buf.starved_bits;
  const double r = segments_from_bits(buf.buffered_bits,
                                      spec_for(*level_, cfg_.segment_duration_s));
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

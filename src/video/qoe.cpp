#include "video/qoe.hpp"

#include <algorithm>
#include <cmath>

#include "util/require.hpp"

namespace cloudfog::video {

QoeModel::QoeModel(QoeModelConfig cfg) : cfg_(cfg) {
  CLOUDFOG_REQUIRE(cfg.latency_knee_ms > 0.0, "latency knee must be positive");
  CLOUDFOG_REQUIRE(cfg.latency_slope > 0.0, "latency slope must be positive");
  CLOUDFOG_REQUIRE(cfg.continuity_exponent >= 1.0, "continuity exponent below 1");
  CLOUDFOG_REQUIRE(cfg.max_bitrate_kbps > cfg.min_bitrate_kbps &&
                       cfg.min_bitrate_kbps > 0.0,
                   "bitrate anchors inverted");
  log_bitrate_range_ = std::log(cfg.max_bitrate_kbps / cfg.min_bitrate_kbps);
  weight_sum_ = cfg.latency_weight + cfg.continuity_weight + cfg.quality_weight;
  CLOUDFOG_REQUIRE(weight_sum_ > 0.0, "weights must not all be zero");
}

double QoeModel::latency_factor(double response_latency_ms) const {
  CLOUDFOG_REQUIRE(response_latency_ms >= 0.0, "negative latency");
  // Logistic: ≈1 well below the knee, 0.5 at the knee, →0 far above it.
  return 1.0 / (1.0 + std::exp(cfg_.latency_slope *
                               (response_latency_ms - cfg_.latency_knee_ms)));
}

double QoeModel::continuity_factor(double continuity) const {
  CLOUDFOG_REQUIRE(continuity >= 0.0 && continuity <= 1.0, "continuity out of [0,1]");
  return std::pow(continuity, cfg_.continuity_exponent);
}

double QoeModel::quality_factor(double bitrate_kbps) const {
  CLOUDFOG_REQUIRE(bitrate_kbps > 0.0, "bitrate must be positive");
  const double clamped =
      std::clamp(bitrate_kbps, cfg_.min_bitrate_kbps, cfg_.max_bitrate_kbps);
  return std::log(clamped / cfg_.min_bitrate_kbps) / log_bitrate_range_;
}

double QoeModel::mos(double response_latency_ms, double continuity,
                     double bitrate_kbps) const {
  const double score = (cfg_.latency_weight * latency_factor(response_latency_ms) +
                        cfg_.continuity_weight * continuity_factor(continuity) +
                        cfg_.quality_weight * quality_factor(bitrate_kbps)) /
                       weight_sum_;
  return 1.0 + 4.0 * score;
}

}  // namespace cloudfog::video

// Quality-of-Experience model (the paper's §5 future work: "we will study
// how to evaluate the user Quality of Experience (QoE) when using the
// CloudFog system").
//
// A standard cloud-gaming MOS (mean-opinion-score) construction on the
// 1–5 scale, combining the three QoS dimensions the evaluation measures:
//   * interaction latency — logistic penalty anchored at the paper's
//     "players begin to notice a response delay of 100 ms";
//   * playback continuity — stalls and losses dominate perceived quality,
//     so the continuity term is super-linear;
//   * picture quality — diminishing returns in the encoding bitrate
//     (logarithmic, normalized to the Table 2 ladder).
#pragma once

namespace cloudfog::video {

struct QoeModelConfig {
  /// Latency at which the MOS latency factor is 0.5 (noticeability knee).
  double latency_knee_ms = 100.0;
  /// Steepness of the latency logistic (per ms).
  double latency_slope = 0.035;
  /// Exponent on continuity: stalls hurt more than linearly.
  double continuity_exponent = 2.0;
  /// Bitrate normalization anchors (Table 2 ladder ends).
  double min_bitrate_kbps = 300.0;
  double max_bitrate_kbps = 1800.0;
  /// Relative weights of the three factors (normalized internally).
  double latency_weight = 0.4;
  double continuity_weight = 0.45;
  double quality_weight = 0.15;
};

class QoeModel {
 public:
  explicit QoeModel(QoeModelConfig cfg = {});

  const QoeModelConfig& config() const { return cfg_; }

  /// Each factor in [0, 1].
  double latency_factor(double response_latency_ms) const;
  double continuity_factor(double continuity) const;
  double quality_factor(double bitrate_kbps) const;

  /// Mean opinion score in [1, 5].
  double mos(double response_latency_ms, double continuity, double bitrate_kbps) const;

 private:
  QoeModelConfig cfg_;
  double weight_sum_;
  double log_bitrate_range_;  ///< log(max_bitrate_kbps / min_bitrate_kbps)
};

}  // namespace cloudfog::video

// Video quality ladder (paper Table 2).
//
//   level  resolution   bitrate   latency requirement  tolerance ρ
//     5    1280×720     1800 kbps       110 ms             1.0
//     4     720×486     1200 kbps        90 ms             0.9
//     3     640×480      800 kbps        70 ms             0.8
//     2     384×260      500 kbps        50 ms             0.7
//     1     288×260      300 kbps        30 ms             0.6
//
// A game with latency requirement L streams at the highest level whose
// requirement is ≤ L; under congestion the receiver-driven adapter walks
// down the ladder (§3.3). β (Eq. 11) is the largest relative bitrate step.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cloudfog::game {

struct QualityLevel {
  int level = 0;  ///< 1 (lowest) … 5 (highest)
  int width = 0;
  int height = 0;
  double bitrate_kbps = 0.0;
  double latency_requirement_ms = 0.0;
  double latency_tolerance = 1.0;  ///< ρ ∈ (0, 1]
};

class QualityLadder {
 public:
  /// The paper's Table 2 ladder.
  static QualityLadder paper_default();

  /// Custom ladder; levels must be sorted ascending by level number with
  /// strictly increasing bitrate.
  explicit QualityLadder(std::vector<QualityLevel> levels);

  std::size_t size() const { return levels_.size(); }
  int min_level() const { return levels_.front().level; }
  int max_level() const { return levels_.back().level; }

  const QualityLevel& at_level(int level) const;

  /// One level up/down, clamped at the ladder ends.
  const QualityLevel& step_up(int level) const;
  const QualityLevel& step_down(int level) const;

  /// β = max_i (b_{i+1} − b_i) / b_i (Eq. 11).
  double adjust_up_factor() const;

 private:
  std::vector<QualityLevel> levels_;  // ascending by level
};

/// Frame rate used throughout the evaluation (OnLive streams at 30 fps).
inline constexpr double kFramesPerSecond = 30.0;

/// Size of one video frame in bits at the given bitrate.
double frame_bits(double bitrate_kbps);

}  // namespace cloudfog::game

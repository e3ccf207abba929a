#include "game/quality_ladder.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace cloudfog::game {

QualityLadder QualityLadder::paper_default() {
  return QualityLadder({
      QualityLevel{1, 288, 260, 300.0, 30.0, 0.6},
      QualityLevel{2, 384, 260, 500.0, 50.0, 0.7},
      QualityLevel{3, 640, 480, 800.0, 70.0, 0.8},
      QualityLevel{4, 720, 486, 1200.0, 90.0, 0.9},
      QualityLevel{5, 1280, 720, 1800.0, 110.0, 1.0},
  });
}

QualityLadder::QualityLadder(std::vector<QualityLevel> levels) : levels_(std::move(levels)) {
  CLOUDFOG_REQUIRE(!levels_.empty(), "ladder must have at least one level");
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    CLOUDFOG_REQUIRE(levels_[i].bitrate_kbps > 0.0, "bitrate must be positive");
    CLOUDFOG_REQUIRE(levels_[i].latency_tolerance > 0.0 && levels_[i].latency_tolerance <= 1.0,
                     "tolerance must be in (0,1]");
    if (i > 0) {
      CLOUDFOG_REQUIRE(levels_[i].level > levels_[i - 1].level, "levels must ascend");
      CLOUDFOG_REQUIRE(levels_[i].bitrate_kbps > levels_[i - 1].bitrate_kbps,
                       "bitrate must ascend with level");
    }
  }
}

const QualityLevel& QualityLadder::at_level(int level) const {
  const auto it = std::find_if(levels_.begin(), levels_.end(),
                               [level](const QualityLevel& q) { return q.level == level; });
  CLOUDFOG_REQUIRE(it != levels_.end(), "no such quality level");
  return *it;
}

const QualityLevel& QualityLadder::step_up(int level) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].level == level) {
      return i + 1 < levels_.size() ? levels_[i + 1] : levels_[i];
    }
  }
  CLOUDFOG_REQUIRE(false, "no such quality level");
  return levels_.front();  // unreachable
}

const QualityLevel& QualityLadder::step_down(int level) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].level == level) {
      return i > 0 ? levels_[i - 1] : levels_[i];
    }
  }
  CLOUDFOG_REQUIRE(false, "no such quality level");
  return levels_.front();  // unreachable
}

double QualityLadder::adjust_up_factor() const {
  double beta = 0.0;
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    beta = std::max(beta, (levels_[i + 1].bitrate_kbps - levels_[i].bitrate_kbps) /
                              levels_[i].bitrate_kbps);
  }
  return beta;
}

double frame_bits(double bitrate_kbps) { return bitrate_kbps * 1000.0 / kFramesPerSecond; }

}  // namespace cloudfog::game

#include "reputation/reputation_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/require.hpp"

namespace cloudfog::reputation {

ReputationStore::ReputationStore(double aging_factor, std::size_t max_ratings_per_supernode)
    : aging_factor_(aging_factor), max_ratings_(max_ratings_per_supernode) {
  CLOUDFOG_REQUIRE(aging_factor > 0.0 && aging_factor < 1.0, "λ must be in (0,1)");
  CLOUDFOG_REQUIRE(max_ratings_per_supernode >= 1, "must retain at least one rating");
}

std::pair<ReputationStore::Iter, ReputationStore::Iter> ReputationStore::group(
    SupernodeId sn) const {
  const auto first = std::partition_point(ratings_.begin(), ratings_.end(),
                                          [sn](const Rating& r) { return r.sn < sn; });
  const auto last =
      std::partition_point(first, ratings_.end(), [sn](const Rating& r) { return r.sn == sn; });
  return {first, last};
}

void ReputationStore::add_rating(SupernodeId sn, double value, int day) {
  CLOUDFOG_REQUIRE(value >= 0.0 && value <= 1.0, "rating out of [0,1]");
  CLOUDFOG_REQUIRE(day >= 1, "days are 1-based");
  CLOUDFOG_REQUIRE(sn <= std::numeric_limits<std::uint32_t>::max(), "supernode id too large");
  ratings_.insert(group(sn).second, Rating{value, static_cast<std::uint32_t>(sn), day});
  const auto [first, last] = group(sn);
  if (static_cast<std::size_t>(last - first) > max_ratings_) {
    // Evict the oldest rating (smallest day; FIFO among ties).
    ratings_.erase(std::min_element(
        first, last, [](const Rating& a, const Rating& b) { return a.day < b.day; }));
  }
}

double ReputationStore::score(SupernodeId sn, int current_day) const {
  const auto [first, last] = group(sn);
  if (first == last) return 0.0;
  double weighted = 0.0;
  double weight_sum = 0.0;
  for (auto it = first; it != last; ++it) {
    const int age = std::max(0, current_day - it->day);
    const double w = std::pow(aging_factor_, static_cast<double>(age));
    weighted += it->value * w;
    weight_sum += w;
  }
  return weight_sum == 0.0 ? 0.0 : weighted / weight_sum;
}

std::size_t ReputationStore::rating_count(SupernodeId sn) const {
  const auto [first, last] = group(sn);
  return static_cast<std::size_t>(last - first);
}

void ReputationStore::forget(SupernodeId sn) {
  const auto [first, last] = group(sn);
  ratings_.erase(first, last);
}

std::vector<SupernodeId> ReputationStore::rated_supernodes() const {
  std::vector<SupernodeId> out;
  for (const Rating& r : ratings_) {
    if (out.empty() || out.back() != r.sn) out.push_back(r.sn);
  }
  return out;
}

}  // namespace cloudfog::reputation

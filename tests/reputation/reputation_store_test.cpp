#include "reputation/reputation_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/require.hpp"
#include "util/rng.hpp"

namespace cloudfog::reputation {
namespace {

TEST(ReputationStore, UnknownSupernodeScoresZero) {
  const ReputationStore store;
  EXPECT_DOUBLE_EQ(store.score(7, 10), 0.0);
}

TEST(ReputationStore, SingleRatingScoresItsValue) {
  ReputationStore store(0.9);
  store.add_rating(1, 0.8, /*day=*/3);
  // Weighted average of one rating is the rating, regardless of age.
  EXPECT_DOUBLE_EQ(store.score(1, 3), 0.8);
  EXPECT_DOUBLE_EQ(store.score(1, 30), 0.8);
}

TEST(ReputationStore, Eq7WeightedAverage) {
  const double lambda = 0.5;
  ReputationStore store(lambda);
  store.add_rating(2, 1.0, /*day=*/1);
  store.add_rating(2, 0.0, /*day=*/3);
  // On day 3: ages 2 and 0 → weights 0.25 and 1.0.
  // s = (1.0*0.25 + 0.0*1.0) / 1.25 = 0.2.
  EXPECT_NEAR(store.score(2, 3), 0.2, 1e-12);
}

TEST(ReputationStore, RecentRatingsDominate) {
  ReputationStore store(0.5);
  store.add_rating(3, 0.1, 1);   // old, bad
  store.add_rating(3, 0.9, 10);  // fresh, good
  EXPECT_GT(store.score(3, 10), 0.85);
}

TEST(ReputationStore, ScoreDriftsAsRatingsAgeTogether) {
  ReputationStore store(0.5);
  store.add_rating(4, 1.0, 1);
  store.add_rating(4, 0.0, 5);
  const double early = store.score(4, 5);
  const double late = store.score(4, 50);
  // Relative weights stay fixed once both ratings age equally — the
  // weighted average is invariant under common scaling.
  EXPECT_NEAR(early, late, 1e-9);
}

TEST(ReputationStore, EvictionKeepsNewest) {
  ReputationStore store(0.9, /*max_ratings=*/3);
  for (int day = 1; day <= 5; ++day) {
    store.add_rating(5, day == 1 ? 0.0 : 1.0, day);
  }
  EXPECT_EQ(store.rating_count(5), 3u);
  // The day-1 zero rating was evicted first.
  EXPECT_DOUBLE_EQ(store.score(5, 5), 1.0);
}

TEST(ReputationStore, SupernodesAreIndependent) {
  ReputationStore store;
  store.add_rating(1, 0.9, 1);
  store.add_rating(2, 0.1, 1);
  EXPECT_GT(store.score(1, 1), store.score(2, 1));
}

TEST(ReputationStore, RatedSupernodesEnumerated) {
  ReputationStore store;
  store.add_rating(9, 0.5, 1);
  store.add_rating(3, 0.5, 1);
  const auto rated = store.rated_supernodes();
  EXPECT_EQ(rated, (std::vector<SupernodeId>{3, 9}));
}

TEST(ReputationStore, SybilResistanceByConstruction) {
  // A player's score of a supernode never changes because some other
  // store (another player, or forged identities) rated it: scores are
  // computed purely from this store's own ratings.
  ReputationStore victim;
  ReputationStore attacker;
  for (int i = 0; i < 100; ++i) attacker.add_rating(8, 1.0, 1);
  EXPECT_DOUBLE_EQ(victim.score(8, 1), 0.0);
}

TEST(ReputationStore, Validation) {
  EXPECT_THROW(ReputationStore(0.0), cloudfog::ConfigError);
  EXPECT_THROW(ReputationStore(1.0), cloudfog::ConfigError);
  ReputationStore store;
  EXPECT_THROW(store.add_rating(1, 1.5, 1), cloudfog::ConfigError);
  EXPECT_THROW(store.add_rating(1, 0.5, 0), cloudfog::ConfigError);
}

/// The map-of-lists store the flat layout replaced, kept as an oracle:
/// per supernode, ratings in insertion order, oldest (FIFO among equal
/// days) evicted past the cap.
class OracleStore {
 public:
  OracleStore(double lambda, std::size_t cap) : lambda_(lambda), cap_(cap) {}

  void add_rating(SupernodeId sn, double value, int day) {
    auto& list = ratings_[sn];
    list.push_back({value, day});
    if (list.size() > cap_) {
      list.erase(std::min_element(list.begin(), list.end(),
                                  [](const Entry& a, const Entry& b) { return a.day < b.day; }));
    }
  }
  double score(SupernodeId sn, int current_day) const {
    const auto it = ratings_.find(sn);
    if (it == ratings_.end() || it->second.empty()) return 0.0;
    double weighted = 0.0;
    double weight_sum = 0.0;
    for (const Entry& r : it->second) {
      const double w = std::pow(lambda_, static_cast<double>(std::max(0, current_day - r.day)));
      weighted += r.value * w;
      weight_sum += w;
    }
    return weight_sum == 0.0 ? 0.0 : weighted / weight_sum;
  }
  std::size_t rating_count(SupernodeId sn) const {
    const auto it = ratings_.find(sn);
    return it == ratings_.end() ? 0 : it->second.size();
  }
  void forget(SupernodeId sn) { ratings_.erase(sn); }
  std::vector<SupernodeId> rated_supernodes() const {
    std::vector<SupernodeId> out;
    for (const auto& [sn, list] : ratings_) out.push_back(sn);
    return out;
  }

 private:
  struct Entry {
    double value;
    int day;
  };
  double lambda_;
  std::size_t cap_;
  std::map<SupernodeId, std::vector<Entry>> ratings_;
};

TEST(ReputationStore, MatchesTheMapOracleUnderRandomOperations) {
  util::Rng rng(2015, 7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t cap = static_cast<std::size_t>(rng.uniform_int(1, 6));
    ReputationStore store(0.8, cap);
    OracleStore oracle(0.8, cap);
    int day = 1;
    for (int op = 0; op < 400; ++op) {
      const auto sn = static_cast<SupernodeId>(rng.uniform_int(0, 11));
      const std::int64_t kind = rng.uniform_int(0, 99);
      if (kind < 70) {
        // Days mostly advance but may repeat or step back (crash ratings
        // land mid-cycle), which exercises FIFO eviction among ties.
        day = std::max(1, day + static_cast<int>(rng.uniform_int(-1, 2)));
        const double value = rng.next_double();
        store.add_rating(sn, value, day);
        oracle.add_rating(sn, value, day);
      } else if (kind < 80) {
        store.forget(sn);
        oracle.forget(sn);
      }
      for (SupernodeId probe = 0; probe < 12; ++probe) {
        ASSERT_EQ(store.rating_count(probe), oracle.rating_count(probe)) << "op " << op;
        // Bit-identical: the flat store sums in the oracle's order.
        ASSERT_EQ(store.score(probe, day), oracle.score(probe, day)) << "op " << op;
      }
      ASSERT_EQ(store.rated_supernodes(), oracle.rated_supernodes()) << "op " << op;
    }
  }
}

// §3.2.1 whitewashing: a forgotten identity scores 0 like any unknown one,
// and its neighbours' ratings are untouched.
TEST(ReputationStore, ForgetResetsOnlyThatIdentity) {
  ReputationStore store(0.9);
  store.add_rating(1, 0.9, 1);
  store.add_rating(1, 0.8, 2);
  store.add_rating(2, 0.4, 2);
  store.forget(1);
  EXPECT_EQ(store.rating_count(1), 0u);
  EXPECT_DOUBLE_EQ(store.score(1, 3), 0.0);
  EXPECT_EQ(store.rated_supernodes(), (std::vector<SupernodeId>{2}));
  EXPECT_DOUBLE_EQ(store.score(2, 3), 0.4);
  store.add_rating(1, 0.3, 3);  // the reborn identity starts from scratch
  EXPECT_DOUBLE_EQ(store.score(1, 3), 0.3);
}

}  // namespace
}  // namespace cloudfog::reputation

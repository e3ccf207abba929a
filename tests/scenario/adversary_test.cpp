#include "scenario/adversary.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace cloudfog::scenario {
namespace {

std::vector<core::SupernodeState> make_fleet(std::size_t n) {
  std::vector<core::SupernodeState> fleet(n);
  for (std::size_t i = 0; i < n; ++i) fleet[i].id = i;
  return fleet;
}

AdversaryConfig config_of(AdversaryKind kind, double fraction) {
  AdversaryConfig cfg;
  cfg.kind = kind;
  cfg.fraction = fraction;
  cfg.delay_ms = 80.0;
  return cfg;
}

TEST(AdversaryModel, KindNamesRoundTrip) {
  for (AdversaryKind kind :
       {AdversaryKind::kNone, AdversaryKind::kFixedDelay, AdversaryKind::kOnOff,
        AdversaryKind::kWhitewash, AdversaryKind::kCollusion}) {
    AdversaryKind back = AdversaryKind::kNone;
    ASSERT_TRUE(adversary_kind_from_name(adversary_kind_name(kind), &back));
    EXPECT_EQ(kind, back);
  }
  AdversaryKind out = AdversaryKind::kNone;
  EXPECT_FALSE(adversary_kind_from_name("sybil", &out));
}

TEST(AdversaryModel, MembershipMatchesLegacyStream) {
  // The model must draw membership exactly like the historical fixed-delay
  // loop did: one Bernoulli per fleet slot, in fleet order, on the same
  // fork — that is what keeps pre-scenario runs byte-identical.
  auto fleet = make_fleet(200);
  AdversaryModel model(config_of(AdversaryKind::kFixedDelay, 0.3), fleet,
                       util::Rng(12345, 7));

  auto expected_fleet = make_fleet(200);
  util::Rng legacy(12345, 7);
  std::vector<std::size_t> expected_members;
  for (std::size_t i = 0; i < expected_fleet.size(); ++i) {
    if (!legacy.chance(0.3)) continue;
    expected_members.push_back(i);
    expected_fleet[i].sabotage_delay_ms = 80.0;
  }
  EXPECT_EQ(expected_members, model.members());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    EXPECT_EQ(expected_fleet[i].sabotage_delay_ms, fleet[i].sabotage_delay_ms) << i;
    EXPECT_EQ(model.is_member(i), expected_fleet[i].sabotage_delay_ms > 0.0) << i;
  }
}

TEST(AdversaryModel, OnOffAlternatesWholeCycles) {
  auto fleet = make_fleet(50);
  AdversaryConfig cfg = config_of(AdversaryKind::kOnOff, 0.4);
  cfg.period_cycles = 2;
  cfg.on_cycles = 1;
  AdversaryModel model(cfg, fleet, util::Rng(7, 7));
  ASSERT_FALSE(model.members().empty());
  std::vector<core::PlayerState> players;

  for (int day = 1; day <= 4; ++day) {
    model.begin_cycle(day, fleet, players);
    const bool expect_on = (day % 2) == 1;  // day 1 on, day 2 off, ...
    for (std::size_t id : model.members()) {
      EXPECT_EQ(fleet[id].sabotage_delay_ms, expect_on ? 80.0 : 0.0)
          << "day " << day << " member " << id;
    }
  }
}

TEST(AdversaryModel, WhitewashWipesEveryMembersRatings) {
  auto fleet = make_fleet(40);
  AdversaryConfig cfg = config_of(AdversaryKind::kWhitewash, 0.5);
  cfg.whitewash_period_cycles = 2;
  AdversaryModel model(cfg, fleet, util::Rng(9, 9));
  ASSERT_FALSE(model.members().empty());
  const std::size_t member = model.members().front();
  std::size_t honest = 0;
  while (model.is_member(honest)) ++honest;

  std::vector<core::PlayerState> players(3);
  for (auto& p : players) {
    p.reputation.add_rating(member, 0.05, 1);  // earned bad score
    p.reputation.add_rating(honest, 0.9, 1);
  }
  model.begin_cycle(2, fleet, players);  // not a rebirth day: (2-1) % 2 != 0
  EXPECT_EQ(players[0].reputation.rating_count(member), 1u);

  model.begin_cycle(3, fleet, players);  // rebirth: identities shed
  for (const auto& p : players) {
    EXPECT_EQ(p.reputation.rating_count(member), 0u);
    EXPECT_EQ(p.reputation.score(member, 3), 0.0);     // back to "unknown"
    EXPECT_EQ(p.reputation.rating_count(honest), 1u);  // victims keep the rest
  }
  // Whitewashers sabotage continuously — rebirth does not pause the attack.
  EXPECT_EQ(fleet[member].sabotage_delay_ms, 80.0);
}

TEST(AdversaryModel, CollusionRotatesOneRingPerCycle) {
  auto fleet = make_fleet(60);
  AdversaryConfig cfg = config_of(AdversaryKind::kCollusion, 0.5);
  cfg.ring_count = 3;
  AdversaryModel model(cfg, fleet, util::Rng(21, 3));
  const auto& members = model.members();
  ASSERT_GE(members.size(), 3u);
  std::vector<core::PlayerState> players;

  for (int day = 1; day <= 6; ++day) {
    model.begin_cycle(day, fleet, players);
    const auto active_ring = static_cast<std::size_t>((day - 1) % 3);
    std::size_t sabotaging = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const bool on = fleet[members[m]].sabotage_delay_ms > 0.0;
      EXPECT_EQ(on, m % 3 == active_ring) << "day " << day << " member " << m;
      sabotaging += on ? 1u : 0u;
    }
    // Only one ring attacks at a time — the coalition majority stays clean.
    EXPECT_LT(sabotaging, members.size());
    EXPECT_GT(sabotaging, 0u);
  }
}

}  // namespace
}  // namespace cloudfog::scenario

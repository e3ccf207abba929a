#include "net/coordinates.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::net {
namespace {

TEST(Distance, KnownValues) {
  EXPECT_DOUBLE_EQ(distance_km({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_km({1, 1}, {1, 1}), 0.0);
}

TEST(Distance, Symmetric) {
  const GeoPoint a{10, 20};
  const GeoPoint b{200, 900};
  EXPECT_DOUBLE_EQ(distance_km(a, b), distance_km(b, a));
}

class GeoPlaneTest : public ::testing::Test {
 protected:
  /// Index of the metro nearest to `p`.
  std::size_t nearest_metro(const GeoPoint& p) const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < plane_.metros().size(); ++i) {
      if (distance_km(p, plane_.metros()[i]) < distance_km(p, plane_.metros()[best])) best = i;
    }
    return best;
  }

  util::Rng rng_{42};
  GeoPlane plane_{GeoPlaneConfig{}, rng_};
};

TEST_F(GeoPlaneTest, MetroCountMatchesConfig) {
  EXPECT_EQ(plane_.metros().size(), GeoPlaneConfig{}.metro_count);
}

TEST_F(GeoPlaneTest, PopulationPointsInsidePlane) {
  util::Rng rng(1);
  const auto& cfg = plane_.config();
  for (int i = 0; i < 5000; ++i) {
    const GeoPoint p = plane_.sample_population_point(rng);
    ASSERT_GE(p.x_km, 0.0);
    ASSERT_LE(p.x_km, cfg.width_km);
    ASSERT_GE(p.y_km, 0.0);
    ASSERT_LE(p.y_km, cfg.height_km);
  }
}

TEST_F(GeoPlaneTest, PopulationClustersAroundMetros) {
  util::Rng rng(2);
  int near_metro = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const GeoPoint p = plane_.sample_population_point(rng);
    const std::size_t m = nearest_metro(p);
    if (distance_km(p, plane_.metros()[m]) < 4 * plane_.config().metro_sigma_km) ++near_metro;
  }
  // 85 % of draws are metro-clustered; nearly all of those are within 4σ.
  EXPECT_GT(near_metro, static_cast<int>(0.75 * n));
}

TEST_F(GeoPlaneTest, FirstMetroIsMostPopulous) {
  util::Rng rng(3);
  std::vector<int> counts(plane_.metros().size(), 0);
  for (int i = 0; i < 20000; ++i) {
    const GeoPoint p = plane_.sample_population_point(rng);
    ++counts[nearest_metro(p)];
  }
  // Zipf weighting: metro 0 must dominate the median metro.
  std::vector<int> sorted = counts;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(counts[0], sorted[sorted.size() / 2] * 2);
}

TEST_F(GeoPlaneTest, DatacenterSitesArePrefixStable) {
  const auto five = plane_.datacenter_sites(5);
  const auto ten = plane_.datacenter_sites(10);
  ASSERT_EQ(five.size(), 5u);
  ASSERT_EQ(ten.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(five[i].x_km, ten[i].x_km);
    EXPECT_DOUBLE_EQ(five[i].y_km, ten[i].y_km);
  }
}

TEST_F(GeoPlaneTest, DatacenterSitesBounded) {
  EXPECT_THROW(plane_.datacenter_sites(65), cloudfog::ConfigError);
  EXPECT_NO_THROW(plane_.datacenter_sites(64));
}

TEST(GeoPlaneConfigValidation, Rejected) {
  util::Rng rng(5);
  GeoPlaneConfig cfg;
  cfg.metro_count = 0;
  EXPECT_THROW(GeoPlane(cfg, rng), cloudfog::ConfigError);
  cfg = GeoPlaneConfig{};
  cfg.rural_fraction = 1.5;
  EXPECT_THROW(GeoPlane(cfg, rng), cloudfog::ConfigError);
}

TEST(GeoPlaneDeterminism, SameSeedSamePlane) {
  util::Rng r1(7);
  util::Rng r2(7);
  const GeoPlane p1(GeoPlaneConfig{}, r1);
  const GeoPlane p2(GeoPlaneConfig{}, r2);
  for (std::size_t i = 0; i < p1.metros().size(); ++i) {
    EXPECT_DOUBLE_EQ(p1.metros()[i].x_km, p2.metros()[i].x_km);
  }
}

TEST_F(GeoPlaneTest, UniformPointsCoverThePlane) {
  util::Rng rng(2);
  const auto& cfg = plane_.config();
  int left = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const GeoPoint p = plane_.sample_uniform_point(rng);
    ASSERT_GE(p.x_km, 0.0);
    ASSERT_LE(p.x_km, cfg.width_km);
    ASSERT_GE(p.y_km, 0.0);
    ASSERT_LE(p.y_km, cfg.height_km);
    if (p.x_km < cfg.width_km / 2.0) ++left;
  }
  // Unlike population points, uniform points ignore the metros.
  EXPECT_NEAR(static_cast<double>(left) / n, 0.5, 0.05);
}

}  // namespace
}  // namespace cloudfog::net

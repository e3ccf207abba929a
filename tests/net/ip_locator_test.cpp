#include "net/ip_locator.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"
#include "util/stats.hpp"

namespace cloudfog::net {
namespace {

TEST(IpLocator, RegisterThenLocate) {
  IpLocator locator(/*error_sigma_km=*/0.0);
  util::Rng rng(1);
  const IpAddress ip = locator.register_node(GeoPoint{100, 200}, rng);
  const auto where = locator.locate(ip);
  ASSERT_TRUE(where.has_value());
  EXPECT_DOUBLE_EQ(where->x_km, 100.0);
  EXPECT_DOUBLE_EQ(where->y_km, 200.0);
}

TEST(IpLocator, UnknownAddressReturnsNullopt) {
  const IpLocator locator;
  EXPECT_FALSE(locator.locate(0xdeadbeef).has_value());
}

TEST(IpLocator, AddressesAreUnique) {
  IpLocator locator;
  util::Rng rng(3);
  const IpAddress a = locator.register_node(GeoPoint{0, 0}, rng);
  const IpAddress b = locator.register_node(GeoPoint{0, 0}, rng);
  EXPECT_NE(a, b);
}

TEST(IpLocator, GeolocationErrorHasConfiguredScale) {
  IpLocator locator(/*error_sigma_km=*/25.0);
  util::Rng rng(4);
  util::RunningStats err_x;
  for (int i = 0; i < 5000; ++i) {
    const IpAddress ip = locator.register_node(GeoPoint{1000, 1000}, rng);
    const auto where = locator.locate(ip);
    err_x.add(where->x_km - 1000.0);
  }
  EXPECT_NEAR(err_x.mean(), 0.0, 2.0);
  EXPECT_NEAR(err_x.stddev(), 25.0, 2.0);
}

TEST(IpLocator, RejectsNegativeSigma) {
  EXPECT_THROW(IpLocator(-1.0), cloudfog::ConfigError);
}

TEST(IpLocator, EstimatesAreReproducibleForTheSameSeed) {
  IpLocator a;
  IpLocator b;
  util::Rng ra(8);
  util::Rng rb(8);
  for (int i = 0; i < 20; ++i) {
    const GeoPoint truth{10.0 * i, 5.0 * i};
    const IpAddress ia = a.register_node(truth, ra);
    const IpAddress ib = b.register_node(truth, rb);
    ASSERT_EQ(ia, ib);
    EXPECT_EQ(*a.locate(ia), *b.locate(ib));
  }
}

}  // namespace
}  // namespace cloudfog::net

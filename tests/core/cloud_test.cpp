#include "core/cloud.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::core {
namespace {

class CloudTest : public ::testing::Test {
 protected:
  CloudTest() : latency_(net::LatencyModelConfig{}) {
    std::vector<DatacenterState> dcs;
    for (double x : {0.0, 2000.0}) {
      DatacenterState dc;
      dc.id = dcs.size();
      dc.endpoint = net::make_infrastructure_endpoint({x, 0.0});
      dcs.push_back(dc);
    }
    cloud_.emplace(std::move(dcs), latency_, net::IpLocator{0.0});
  }

  SupernodeState make_sn(double x, int capacity = 5) {
    SupernodeState sn;
    sn.id = fleet_.size();
    sn.endpoint = net::Endpoint{{x, 0.0}, 2.0};
    sn.capacity = capacity;
    sn.upload_mbps = capacity * 2.0;
    util::Rng rng(fleet_.size() + 1);
    cloud_->register_supernode(sn, rng);
    fleet_.push_back(sn);
    return sn;
  }

  /// The `count` candidates the cloud answers a player at the origin.
  std::vector<std::size_t> candidates(std::size_t count) const {
    std::vector<std::size_t> out;
    cloud_->candidate_supernodes_into(net::Endpoint{{0.0, 0.0}, 5.0}, fleet_, count, out);
    return out;
  }

  net::LatencyModel latency_;
  std::optional<Cloud> cloud_;
  std::vector<SupernodeState> fleet_;
};

TEST_F(CloudTest, NearestDatacenterByRtt) {
  EXPECT_EQ(cloud_->nearest_datacenter(net::Endpoint{{100.0, 0.0}, 5.0}), 0u);
  EXPECT_EQ(cloud_->nearest_datacenter(net::Endpoint{{1900.0, 0.0}, 5.0}), 1u);
}

TEST_F(CloudTest, CandidatesSortedByDistance) {
  make_sn(100.0);
  make_sn(500.0);
  make_sn(1500.0);
  const auto cands = candidates(2);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0], 0u);
  EXPECT_EQ(cands[1], 1u);
}

TEST_F(CloudTest, FullSupernodesExcluded) {
  make_sn(100.0, /*capacity=*/1);
  make_sn(500.0);
  fleet_[0].served = 1;  // at capacity
  const auto cands = candidates(5);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], 1u);
}

TEST_F(CloudTest, UndeployedAndFailedExcluded) {
  make_sn(100.0);
  make_sn(200.0);
  make_sn(300.0);
  fleet_[0].deployed = false;
  fleet_[1].failed = true;
  const auto cands = candidates(5);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], 2u);
}

TEST_F(CloudTest, CandidateCountIsCapped) {
  for (int i = 0; i < 10; ++i) make_sn(100.0 * (i + 1));
  EXPECT_EQ(candidates(3).size(), 3u);
}

TEST_F(CloudTest, CandidateLookupClearsTheScratchBuffer) {
  make_sn(100.0);
  std::vector<std::size_t> out{7, 7, 7};
  cloud_->candidate_supernodes_into(net::Endpoint{{0.0, 0.0}, 5.0}, fleet_, 5, out);
  EXPECT_EQ(out, (std::vector<std::size_t>{0}));
}

TEST_F(CloudTest, DatacenterIndexValidated) {
  EXPECT_THROW(cloud_->datacenter(2), ConfigError);
}

TEST(CloudConstruction, RequiresAtLeastOneDatacenter) {
  net::LatencyModel latency{net::LatencyModelConfig{}};
  EXPECT_THROW(Cloud({}, latency, net::IpLocator{}), ConfigError);
}

}  // namespace
}  // namespace cloudfog::core

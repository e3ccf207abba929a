#include "oracle/network.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace cloudfog::oracle {
namespace {

/// Long enough for every message, timeout and retry of a run to fire.
constexpr sim::SimTime kDrainS = 3600.0;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : latency_(net::LatencyModelConfig{}), network_(sim_, latency_) {}

  Address add(double x, double access = 5.0, std::vector<Message>* inbox = nullptr) {
    return network_.register_endpoint(net::Endpoint{{x, 0.0}, access},
                                      [inbox](const Message& m) {
                                        if (inbox != nullptr) inbox->push_back(m);
                                      });
  }

  sim::Simulator sim_;
  net::LatencyModel latency_;
  MessageNetwork network_;
};

TEST_F(NetworkTest, DeliversWithPropagationDelay) {
  std::vector<Message> inbox;
  const Address a = add(0.0);
  const Address b = add(1000.0, 5.0, &inbox);
  Message msg;
  msg.src = a;
  msg.dst = b;
  msg.kind = MessageKind::kProbe;
  const double at = network_.send(msg);
  EXPECT_GT(at, 0.0);
  sim_.run_until(at);  // the clock stops at the delivery
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].kind, MessageKind::kProbe);
  // Delivery delay ≈ one-way latency + serialization.
  const double expected_ms =
      latency_.one_way_ms(network_.endpoint_of(a), network_.endpoint_of(b)) +
      msg.size_bits / 1e6 * 1000.0;
  EXPECT_NEAR(sim_.now() * 1000.0, expected_ms, 1e-6);
}

TEST_F(NetworkTest, MessagesToDownEndpointVanish) {
  std::vector<Message> inbox;
  const Address a = add(0.0);
  const Address b = add(10.0, 5.0, &inbox);
  network_.set_down(b, true);
  Message msg;
  msg.src = a;
  msg.dst = b;
  EXPECT_LT(network_.send(msg), 0.0);
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_TRUE(inbox.empty());
  EXPECT_EQ(network_.dropped_count(), 1u);
}

TEST_F(NetworkTest, DeathInFlightDropsMessage) {
  std::vector<Message> inbox;
  const Address a = add(0.0);
  const Address b = add(3000.0, 5.0, &inbox);  // far: long flight time
  Message msg;
  msg.src = a;
  msg.dst = b;
  EXPECT_GT(network_.send(msg), 0.0);  // accepted while b was alive
  network_.set_down(b, true);          // dies before delivery
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_TRUE(inbox.empty());
}

TEST_F(NetworkTest, LossDropsSomeMessages) {
  NetworkConfig cfg;
  cfg.loss_probability = 0.5;
  MessageNetwork lossy(sim_, latency_, cfg, util::Rng(3));
  int received = 0;
  const Address a = lossy.register_endpoint(net::Endpoint{{0, 0}, 5.0}, [](const Message&) {});
  const Address b = lossy.register_endpoint(net::Endpoint{{10, 0}, 5.0},
                                            [&received](const Message&) { ++received; });
  for (int i = 0; i < 200; ++i) {
    Message msg;
    msg.src = a;
    msg.dst = b;
    lossy.send(msg);
  }
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_EQ(received + static_cast<int>(lossy.dropped_count()), 200);
}

TEST_F(NetworkTest, OrderingFollowsDistance) {
  std::vector<int> arrivals;
  const Address src = add(0.0);
  const Address near = network_.register_endpoint(
      net::Endpoint{{10, 0}, 1.0}, [&arrivals](const Message&) { arrivals.push_back(1); });
  const Address far = network_.register_endpoint(
      net::Endpoint{{4000, 0}, 1.0}, [&arrivals](const Message&) { arrivals.push_back(2); });
  Message to_far;
  to_far.src = src;
  to_far.dst = far;
  network_.send(to_far);  // sent first…
  Message to_near;
  to_near.src = src;
  to_near.dst = near;
  network_.send(to_near);  // …but the near one arrives first
  sim_.run_until(sim_.now() + kDrainS);
  EXPECT_EQ(arrivals, (std::vector<int>{1, 2}));
}

TEST_F(NetworkTest, ValidatesAddresses) {
  Message msg;
  msg.src = 0;
  msg.dst = 99;
  EXPECT_THROW(network_.send(msg), ConfigError);
}

TEST(MessageKindNames, AllDistinct) {
  EXPECT_EQ(to_string(MessageKind::kProbe), "Probe");
  EXPECT_NE(to_string(MessageKind::kCapacityGrant), to_string(MessageKind::kCapacityDeny));
}

}  // namespace
}  // namespace cloudfog::oracle

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "common/units.h"
#include "dht/dht.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim::dht {
namespace {

/// A DHT swarm spread over the standard world topology, like the paper's
/// geo-distributed peers.
class DhtTest : public ::testing::Test {
 protected:
  DhtTest()
      : topo_(net::StandardWorld()), network_(&sim_, &topo_), dht_(&network_) {}

  /// Creates `n` nodes round-robin across GC's four zones and bootstraps
  /// them all against node 0.
  void BuildSwarm(int n, uint64_t seed = 42) {
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
      const net::SiteId site = static_cast<net::SiteId>(i % 4);  // GC zones.
      const net::NodeId endpoint =
          topo_.AddNode(site, net::CloudVmNetConfig());
      nodes_.push_back(dht_.CreateNode(endpoint, rng.Next64()));
    }
    for (size_t i = 1; i < nodes_.size(); ++i) {
      nodes_[i]->Bootstrap(Contact{nodes_[0]->id(), nodes_[0]->endpoint()},
                           [](std::vector<Contact>) {});
      sim_.Run();
    }
    // A second lookup round lets early joiners learn about late ones.
    for (auto* node : nodes_) {
      node->FindClosest(node->id(), [](std::vector<Contact>) {});
      sim_.Run();
    }
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
  DhtNetwork dht_;
  std::vector<Node*> nodes_;
};

TEST(DhtKeyTest, DistanceIsXorMetric) {
  EXPECT_EQ(Distance(0b1010, 0b0110), 0b1100u);
  EXPECT_EQ(Distance(42, 42), 0u);
  // Symmetry and the triangle-ish property of XOR.
  EXPECT_EQ(Distance(1, 7), Distance(7, 1));
}

TEST(DhtKeyTest, KeyFromStringStableAndSpread) {
  EXPECT_EQ(KeyFromString("progress/run-1"), KeyFromString("progress/run-1"));
  EXPECT_NE(KeyFromString("progress/run-1"), KeyFromString("progress/run-2"));
  EXPECT_NE(KeyFromString("a"), KeyFromString("b"));
}

TEST_F(DhtTest, BootstrapPopulatesRoutingTables) {
  BuildSwarm(8);
  for (auto* node : nodes_) {
    EXPECT_GE(node->KnownContacts().size(), 3u)
        << "node " << node->endpoint() << " knows too few peers";
  }
}

TEST_F(DhtTest, StoreThenGetFromDifferentNode) {
  BuildSwarm(8);
  const Key key = KeyFromString("progress/run-1");
  Status store_status = Status::Internal("pending");
  nodes_[1]->Store(key, "epoch=3;tbs=32768", 600.0,
                   [&](Status s) { store_status = s; });
  sim_.Run();
  ASSERT_TRUE(store_status.ok()) << store_status.ToString();

  Result<std::string> got = Status::Internal("pending");
  nodes_[6]->Get(key, [&](Result<std::string> r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "epoch=3;tbs=32768");
}

TEST_F(DhtTest, GetMissingKeyIsNotFound) {
  BuildSwarm(6);
  Result<std::string> got = Status::Internal("pending");
  nodes_[2]->Get(KeyFromString("nope"),
                 [&](Result<std::string> r) { got = std::move(r); });
  sim_.Run();
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(DhtTest, ValuesExpireAfterTtl) {
  BuildSwarm(6);
  const Key key = KeyFromString("ephemeral");
  nodes_[0]->Store(key, "v", /*ttl_sec=*/30.0, [](Status) {});
  sim_.Run();

  Result<std::string> got = Status::Internal("pending");
  nodes_[3]->Get(key, [&](Result<std::string> r) { got = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(got.ok());

  sim_.RunUntil(sim_.Now() + 60.0);
  Result<std::string> later = Status::Internal("pending");
  nodes_[3]->Get(key, [&](Result<std::string> r) { later = std::move(r); });
  sim_.Run();
  EXPECT_EQ(later.status().code(), StatusCode::kNotFound);
}

TEST_F(DhtTest, ReplicationSurvivesSingleNodeFailure) {
  BuildSwarm(10);
  const Key key = KeyFromString("training/state");
  nodes_[0]->Store(key, "alive", 3600.0, [](Status) {});
  sim_.Run();

  // Kill the replica holding the value closest to the key.
  Node* closest_holder = nullptr;
  Key best = ~0ULL;
  for (auto* node : nodes_) {
    if (node->stored_values() > 0 && Distance(node->id(), key) < best) {
      best = Distance(node->id(), key);
      closest_holder = node;
    }
  }
  ASSERT_NE(closest_holder, nullptr);
  closest_holder->GoOffline();

  Result<std::string> got = Status::Internal("pending");
  Node* reader = nodes_[0] == closest_holder ? nodes_[1] : nodes_[0];
  reader->Get(key, [&](Result<std::string> r) { got = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(got.ok()) << got.status().ToString();
}

TEST_F(DhtTest, OfflineNodeTimesOutAndLookupStillConverges) {
  BuildSwarm(8);
  nodes_[4]->GoOffline();
  nodes_[5]->GoOffline();
  std::vector<Contact> found;
  bool done = false;
  nodes_[0]->FindClosest(KeyFromString("anything"),
                         [&](std::vector<Contact> c) {
                           found = std::move(c);
                           done = true;
                         });
  sim_.Run();
  EXPECT_TRUE(done);
  // Dead endpoints must not appear among the responders.
  for (const Contact& c : found) {
    EXPECT_NE(c.node, nodes_[4]->endpoint());
    EXPECT_NE(c.node, nodes_[5]->endpoint());
  }
  EXPECT_GE(found.size(), 3u);
}

TEST_F(DhtTest, RejoinAfterInterruptionServesAgain) {
  BuildSwarm(6);
  const Key key = KeyFromString("k");
  nodes_[1]->Store(key, "v1", 3600.0, [](Status) {});
  sim_.Run();
  nodes_[1]->GoOffline();
  nodes_[1]->GoOnline();  // Spot replacement at the same endpoint.
  Result<std::string> got = Status::Internal("pending");
  nodes_[1]->Get(key, [&](Result<std::string> r) { got = std::move(r); });
  sim_.Run();
  EXPECT_TRUE(got.ok());
}

TEST_F(DhtTest, LookupLatencyReflectsGeography) {
  // All RPCs cross continents, so a lookup takes at least one RTT but
  // bounded rounds: between ~0.1 s and a few seconds of simulated time.
  BuildSwarm(12);
  const double start = sim_.Now();
  bool done = false;
  nodes_[0]->FindClosest(KeyFromString("x"), [&](std::vector<Contact>) {
    done = true;
  });
  sim_.Run();
  ASSERT_TRUE(done);
  const double elapsed = sim_.Now() - start;
  EXPECT_GT(elapsed, 0.05);   // At least an intercontinental RTT.
  EXPECT_LT(elapsed, 30.0);   // Convergence, not a timeout spiral.
}

TEST_F(DhtTest, StoreIsVisibleToEveryNode) {
  BuildSwarm(10);
  const Key key = KeyFromString("broadcast");
  nodes_[7]->Store(key, "payload", 3600.0, [](Status) {});
  sim_.Run();
  int successes = 0;
  for (auto* node : nodes_) {
    Result<std::string> got = Status::Internal("pending");
    node->Get(key, [&](Result<std::string> r) { got = std::move(r); });
    sim_.Run();
    if (got.ok() && *got == "payload") ++successes;
  }
  EXPECT_EQ(successes, 10);
}

TEST_F(DhtTest, ControlTrafficIsMetered) {
  BuildSwarm(8);
  double total = 0;
  for (auto* node : nodes_) {
    total += network_.NodeEgressBytes(node->endpoint());
  }
  EXPECT_GT(total, 0);          // RPCs cost bytes...
  EXPECT_LT(total, 10 * kMB);   // ...but the control plane stays tiny.
}

}  // namespace
}  // namespace hivesim::dht

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <vector>

#include "common/units.h"
#include "net/network.h"
#include "net/profiler.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace hivesim::net {
namespace {

/// Two-site fixture: a fast local site and a slow remote one.
class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&sim_, &topo_) {}

  void BuildTwoSites(double local_gbps = 10, double wan_mbps = 100,
                     double wan_rtt_ms = 100) {
    a_ = topo_.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
    b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
    topo_.SetPath(a_, a_, GbpsToBytesPerSec(local_gbps), MsToSec(1));
    topo_.SetPath(b_, b_, GbpsToBytesPerSec(local_gbps), MsToSec(1));
    topo_.SetPath(a_, b_, MbpsToBytesPerSec(wan_mbps), MsToSec(wan_rtt_ms));
    n0_ = topo_.AddNode(a_);
    n1_ = topo_.AddNode(a_);
    n2_ = topo_.AddNode(b_);
  }

  sim::Simulator sim_;
  Topology topo_;
  Network network_;
  SiteId a_ = 0, b_ = 0;
  NodeId n0_ = 0, n1_ = 0, n2_ = 0;
};

TEST_F(NetworkTest, SingleFlowUsesFullPath) {
  BuildTwoSites();
  bool done = false;
  double done_at = -1;
  // 125 MB over a 10 Gb/s local path = 0.1 s.
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 125 * kMB,
                             [&] {
                               done = true;
                               done_at = sim_.Now();
                             })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(done_at, 0.1, 1e-6);
}

TEST_F(NetworkTest, TwoFlowsShareLinkFairly) {
  BuildTwoSites();
  int completed = 0;
  double last = 0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(network_
                    .StartFlow(n0_, n1_, 125 * kMB,
                               [&] {
                                 ++completed;
                                 last = sim_.Now();
                               })
                    .ok());
  }
  sim_.Run();
  EXPECT_EQ(completed, 2);
  // Two equal flows sharing 10 Gb/s finish together at 0.2 s.
  EXPECT_NEAR(last, 0.2, 1e-6);
}

TEST_F(NetworkTest, WanFlowLimitedByPathBandwidth) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/100, /*wan_rtt_ms=*/1);
  double done_at = -1;
  // 12.5 MB at 100 Mb/s = 1 s.
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 12.5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, TcpWindowCapsHighRttFlow) {
  // 1 MB window at 200 ms RTT caps a stream at 5 MB/s = 40 Mb/s even
  // though the path carries 1000 Mb/s.
  a_ = topo_.AddSite("a", Provider::kOnPremise, Continent::kEu);
  b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kUs);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_, small);
  n2_ = topo_.AddNode(b_);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, MultiStreamRaisesWindowCap) {
  a_ = topo_.AddSite("a", Provider::kOnPremise, Continent::kEu);
  b_ = topo_.AddSite("b", Provider::kGoogleCloud, Continent::kUs);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_, small);
  n2_ = topo_.AddNode(b_);
  double done_at = -1;
  FlowOptions opts;
  opts.streams = 4;  // 4 x 5 MB/s = 20 MB/s.
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n2_, 5 * kMB,
                             [&] { done_at = sim_.Now(); }, opts)
                  .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 0.25, 1e-6);
}

TEST_F(NetworkTest, AppRateCapRespected) {
  BuildTwoSites();
  FlowOptions opts;
  opts.app_rate_cap_bps = 12.5 * kMB;  // 100 Mb/s serialization bound.
  double done_at = -1;
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 12.5 * kMB,
                             [&] { done_at = sim_.Now(); }, opts)
                  .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, ZeroByteFlowDeliversAfterHalfRtt) {
  BuildTwoSites(10, 100, /*wan_rtt_ms=*/200);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 0, [&] { done_at = sim_.Now(); }).ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 0.1, 1e-9);
}

TEST_F(NetworkTest, CancelStopsDeliveryAndKeepsPartialMeter) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/80, /*wan_rtt_ms=*/1);
  bool done = false;
  auto flow = network_.StartFlow(n0_, n2_, 100 * kMB, [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  sim_.RunUntil(1.0);  // 10 MB/s for 1 s -> 10 MB delivered.
  EXPECT_TRUE(network_.CancelFlow(*flow));
  sim_.Run();
  EXPECT_FALSE(done);
  EXPECT_NEAR(network_.BytesBetweenNodes(n0_, n2_), 10 * kMB, kMB * 0.01);
  EXPECT_FALSE(network_.CancelFlow(*flow));  // Already gone.
}

TEST_F(NetworkTest, CancelLatencyOnlyFlowSuppressesDelivery) {
  // Latency-only flows are tracked like any other: cancelling one must
  // report success and the completion callback must never fire.
  BuildTwoSites(10, 100, /*wan_rtt_ms=*/200);
  bool done = false;
  auto flow = network_.StartFlow(n0_, n2_, 0, [&] { done = true; });
  ASSERT_TRUE(flow.ok());
  EXPECT_EQ(network_.active_flows(), 1u);
  EXPECT_TRUE(network_.CancelFlow(*flow));
  sim_.Run();
  EXPECT_FALSE(done);
  EXPECT_EQ(network_.active_flows(), 0u);
  EXPECT_FALSE(network_.CancelFlow(*flow));  // Already gone.
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.0);
}

TEST_F(NetworkTest, StaleHandleNeverNamesTheSlotsNextFlow) {
  BuildTwoSites();
  auto old_flow = network_.StartFlow(n0_, n1_, 100 * kMB, nullptr);
  ASSERT_TRUE(old_flow.ok());
  ASSERT_TRUE(network_.CancelFlow(*old_flow));
  bool done = false;
  auto new_flow = network_.StartFlow(n0_, n1_, 100 * kMB, [&] { done = true; });
  ASSERT_TRUE(new_flow.ok());
  // The new flow took the freed slab slot (the handle's high half) under a
  // new generation, so the two handles differ only in their low half.
  ASSERT_EQ(*new_flow >> 32, *old_flow >> 32);
  ASSERT_NE(*new_flow, *old_flow);
  EXPECT_FALSE(network_.CancelFlow(*old_flow));
  EXPECT_EQ(network_.FlowRate(*old_flow), 0.0);
  EXPECT_GT(network_.FlowRate(*new_flow), 0.0);
  EXPECT_EQ(network_.active_flows(), 1u);
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(network_.CancelFlow(*new_flow));  // Finished.
}

TEST_F(NetworkTest, LatencyAndSlabFlowIdsNeverAlias) {
  BuildTwoSites();
  bool slab_done = false;
  bool latency_done = false;
  auto slab = network_.StartFlow(n0_, n1_, 100 * kMB, [&] { slab_done = true; });
  auto latency =
      network_.StartFlow(n0_, n2_, 0, [&] { latency_done = true; });
  ASSERT_TRUE(slab.ok());
  ASSERT_TRUE(latency.ok());
  // The first of each kind share their low bits: exactly the ids a shared
  // numbering would confuse. Bit 63 tells them apart.
  constexpr FlowId kTag = FlowId{1} << 63;
  ASSERT_EQ(*latency & ~kTag, *slab);
  ASSERT_NE(*latency, *slab);
  EXPECT_EQ(network_.FlowRate(*latency), 0.0);  // Not read as the slab flow.
  EXPECT_GT(network_.FlowRate(*slab), 0.0);
  EXPECT_FALSE(network_.CancelFlow(*latency + 1));  // Never issued.

  // Cancelling the slab flow leaves the latency flow to deliver ...
  EXPECT_TRUE(network_.CancelFlow(*slab));
  EXPECT_EQ(network_.active_flows(), 1u);
  sim_.Run();
  EXPECT_FALSE(slab_done);
  EXPECT_TRUE(latency_done);

  // ... and cancelling a latency flow leaves the slab flow running.
  auto slab2 = network_.StartFlow(n0_, n1_, 100 * kMB, [&] { slab_done = true; });
  latency_done = false;
  auto latency2 =
      network_.StartFlow(n0_, n2_, 0, [&] { latency_done = true; });
  ASSERT_TRUE(slab2.ok());
  ASSERT_TRUE(latency2.ok());
  EXPECT_TRUE(network_.CancelFlow(*latency2));
  EXPECT_GT(network_.FlowRate(*slab2), 0.0);
  sim_.Run();
  EXPECT_TRUE(slab_done);
  EXPECT_FALSE(latency_done);
}

TEST_F(NetworkTest, LatencyOnlyFlowMetersDeliveredBytes) {
  // Sub-epsilon payloads ride the latency-only path but still count as
  // delivered traffic for the egress cost engine.
  BuildTwoSites();
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 0.5, nullptr).ok());
  sim_.Run();
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.5);
  EXPECT_DOUBLE_EQ(network_.NodeEgressBytes(n0_), 0.5);
  EXPECT_DOUBLE_EQ(network_.NodeIngressBytes(n2_), 0.5);
}

TEST_F(NetworkTest, MessageBytesMeteredOnDeliveryNotAtSend) {
  // A run stopped mid-flight must not have booked undelivered
  // control-plane bytes into egress cost. Control messages are sub-byte
  // latency-only flows.
  BuildTwoSites(10, /*wan_mbps=*/80, /*wan_rtt_ms=*/200);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 0.5, nullptr).ok());
  sim_.RunUntil(0.05);  // In flight: one-way delay is 0.1 s.
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.0);
  sim_.Run();
  EXPECT_DOUBLE_EQ(network_.BytesBetweenNodes(n0_, n2_), 0.5);
}

TEST_F(NetworkTest, PerStreamCapUsesMinOfEndpointWindows) {
  // The receiver's 1 MB window at 200 ms RTT caps the stream at 5 MB/s
  // even though the sender has the default 8 MB window: both endpoints
  // bound the bytes in flight (the paper's RTT-window model for
  // asymmetric endpoints).
  a_ = topo_.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  b_ = topo_.AddSite("b", Provider::kOnPremise, Continent::kEu);
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(1000), MsToSec(200));
  NodeNetConfig small;
  small.tcp_window_bytes = 1e6;
  n0_ = topo_.AddNode(a_);         // 8 MB default send window.
  n2_ = topo_.AddNode(b_, small);  // 1 MB receive window.
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 5 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
}

TEST_F(NetworkTest, MetersTrackNodeAndSiteTraffic) {
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 10 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n1_, n2_, 5 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 2 * kMB, nullptr).ok());
  sim_.Run();
  EXPECT_NEAR(network_.NodeEgressBytes(n0_), 12 * kMB, 1.0);
  EXPECT_NEAR(network_.NodeIngressBytes(n2_), 15 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, b_), 15 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(a_, a_), 2 * kMB, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(b_, a_), 0, 1e-9);
}

TEST_F(NetworkTest, SitePairAggregateMatchesNodePairSums) {
  // BytesBetweenSites is served from an aggregate maintained at metering
  // time; it must equal the brute-force sum over all node pairs for every
  // directed site pair, including partially delivered flows.
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n2_, 10 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n1_, n2_, 5 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 2 * kMB, nullptr).ok());
  ASSERT_TRUE(network_.StartFlow(n2_, n0_, 0.5, nullptr).ok());
  sim_.RunUntil(0.05);  // Mid-flight: some flows only partially metered.

  auto check_all_pairs = [&] {
    for (SiteId s = 0; s < topo_.num_sites(); ++s) {
      for (SiteId d = 0; d < topo_.num_sites(); ++d) {
        double sum = 0;
        for (NodeId a = 0; a < topo_.num_nodes(); ++a) {
          for (NodeId b = 0; b < topo_.num_nodes(); ++b) {
            if (topo_.SiteOf(a) == s && topo_.SiteOf(b) == d) {
              sum += network_.BytesBetweenNodes(a, b);
            }
          }
        }
        EXPECT_NEAR(network_.BytesBetweenSites(s, d), sum, 1e-6)
            << "site pair " << s << "->" << d;
      }
    }
  };
  check_all_pairs();
  sim_.Run();  // Everything delivered.
  check_all_pairs();
}

TEST_F(NetworkTest, PeakEgressRateRecorded) {
  BuildTwoSites(10, 100, 1);
  ASSERT_TRUE(network_.StartFlow(n0_, n1_, 125 * kMB, nullptr).ok());
  sim_.Run();
  EXPECT_NEAR(network_.NodePeakEgressRate(n0_), GbpsToBytesPerSec(10),
              GbpsToBytesPerSec(0.01));
}

// Two flows into one 10 Gb/s NIC, started in the same callback: each only
// ever sends at 5 Gb/s. The solo state in between the two starts lasts
// zero seconds and must not count as a peak.
TEST_F(NetworkTest, PeakEgressIgnoresZeroDurationStates) {
  BuildTwoSites(10, 100, 1);
  const NodeId n3 = topo_.AddNode(a_);
  sim_.Schedule(0, [&] {
    ASSERT_TRUE(network_.StartFlow(n0_, n1_, 125 * kMB, nullptr).ok());
    ASSERT_TRUE(network_.StartFlow(n3, n1_, 125 * kMB, nullptr).ok());
  });
  sim_.Run();
  EXPECT_NEAR(network_.NodePeakEgressRate(n0_), GbpsToBytesPerSec(5),
              GbpsToBytesPerSec(0.01));
  EXPECT_NEAR(network_.NodePeakEgressRate(n3), GbpsToBytesPerSec(5),
              GbpsToBytesPerSec(0.01));
}

TEST_F(NetworkTest, InvalidEndpointsRejected) {
  BuildTwoSites();
  EXPECT_FALSE(network_.StartFlow(99, n1_, 1, nullptr).ok());
  EXPECT_FALSE(network_.StartFlow(n0_, n1_, -5, nullptr).ok());
}

TEST_F(NetworkTest, BandwidthFreedWhenFlowFinishes) {
  BuildTwoSites();
  // Small flow finishes first; big flow then speeds up.
  double small_done = -1, big_done = -1;
  ASSERT_TRUE(network_
                  .StartFlow(n0_, n1_, 125 * kMB,
                             [&] { small_done = sim_.Now(); })
                  .ok());
  ASSERT_TRUE(network_
                  .StartFlow(n1_, n0_, 250 * kMB,
                             [&] { big_done = sim_.Now(); })
                  .ok());
  sim_.Run();
  // Opposite directions on a full-duplex path: both run at 10 Gb/s.
  EXPECT_NEAR(small_done, 0.1, 1e-6);
  EXPECT_NEAR(big_done, 0.2, 1e-6);
}

TEST_F(NetworkTest, RefreshAppliesLiveLinkDegradation) {
  BuildTwoSites(/*local_gbps=*/10, /*wan_mbps=*/100, /*wan_rtt_ms=*/1);
  double done_at = -1;
  // 25 MB at 100 Mb/s would take 2 s...
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 25 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.RunUntil(1.0);  // Half delivered.
  // ...but the WAN degrades to 25 Mb/s at t=1 (e.g. congestion event).
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(25), MsToSec(1));
  network_.Refresh();
  sim_.Run();
  // Remaining 12.5 MB at 25 Mb/s = 4 s more.
  EXPECT_NEAR(done_at, 5.0, 0.01);
}

TEST_F(NetworkTest, RefreshAppliesLinkRecoveryToo) {
  BuildTwoSites(10, /*wan_mbps=*/25, /*wan_rtt_ms=*/1);
  double done_at = -1;
  ASSERT_TRUE(
      network_.StartFlow(n0_, n2_, 25 * kMB, [&] { done_at = sim_.Now(); })
          .ok());
  sim_.RunUntil(4.0);  // 12.5 MB delivered at 25 Mb/s.
  topo_.SetPath(a_, b_, MbpsToBytesPerSec(100), MsToSec(1));
  network_.Refresh();
  sim_.Run();
  // The flow's stream cap was fixed at start (25 Mb/s): recovery cannot
  // exceed the cap it negotiated, so it still finishes at 8 s.
  EXPECT_NEAR(done_at, 8.0, 0.01);
}

// --- Topology ---

TEST(TopologyTest, MissingPathIsNotFound) {
  Topology t;
  SiteId a = t.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  SiteId b = t.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
  EXPECT_FALSE(t.PathBetween(a, b).ok());
  t.SetPath(a, b, 100, 0.1);
  EXPECT_TRUE(t.PathBetween(a, b).ok());
  EXPECT_TRUE(t.PathBetween(b, a).ok());  // Symmetric.
}

TEST(TopologyTest, UnsetPairsStayNotFoundAcrossTableGrowth) {
  Topology t;
  SiteId a = t.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  SiteId b = t.AddSite("b", Provider::kGoogleCloud, Continent::kEu);
  t.SetPath(a, a, 100, 0.001);
  t.SetPath(b, a, 50, 0.1, 5);
  // A site added after the paths keeps them, and has none of its own.
  SiteId c = t.AddSite("c", Provider::kAws, Continent::kUs);
  auto ab = t.PathBetween(a, b);
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(ab->bandwidth_bps, 50);
  EXPECT_EQ(ab->rtt_sec, 0.1);
  EXPECT_EQ(ab->single_stream_bps, 5);
  EXPECT_TRUE(t.PathBetween(a, a).ok());
  for (const auto& [x, y] : {std::pair{b, b}, std::pair{a, c},
                             std::pair{c, b}, std::pair{c, c}}) {
    EXPECT_EQ(t.PathBetween(x, y).status().code(), StatusCode::kNotFound)
        << x << "->" << y;
  }
  // A site id the topology has never seen is NotFound too.
  EXPECT_EQ(t.PathBetween(a, 9).status().code(), StatusCode::kNotFound);
}

TEST(TopologyTest, InternedConfigsRoundTripMixedNodes) {
  Topology t;
  const SiteId a = t.AddSite("a", Provider::kGoogleCloud, Continent::kUs);
  const SiteId b = t.AddSite("b", Provider::kOnPremise, Continent::kEu);
  NodeNetConfig custom;
  custom.tcp_window_bytes = 3e6;
  // Interleaved, so interning cannot lean on the previous node alone.
  const NodeNetConfig pattern[] = {CloudVmNetConfig(), OnPremNetConfig(),
                                   CloudVmNetConfig(), custom,
                                   OnPremNetConfig(),  custom};
  std::vector<NodeId> nodes;
  for (int round = 0; round < 3; ++round) {
    for (const NodeNetConfig& config : pattern) {
      nodes.push_back(t.AddNode(round % 2 == 0 ? a : b, config));
    }
  }
  EXPECT_EQ(t.num_distinct_configs(), 3u);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeNetConfig& want = pattern[i % std::size(pattern)];
    const NodeNetConfig& got = t.ConfigOf(nodes[i]);
    EXPECT_EQ(got.tcp_window_bytes, want.tcp_window_bytes) << "node " << i;
    EXPECT_EQ(t.EgressCap(nodes[i]), GbpsToBytesPerSec(10));
    EXPECT_EQ(t.IngressCap(nodes[i]), GbpsToBytesPerSec(10));
    EXPECT_EQ(t.SiteOf(nodes[i]), (i / std::size(pattern)) % 2 == 0 ? a : b);
  }
}

TEST(TopologyTest, SameConfigFleetStoresOneTableEntry) {
  Topology t = StandardWorld();
  for (int i = 0; i < 20000; ++i) {
    t.AddNode(static_cast<SiteId>(i % t.num_sites()), CloudVmNetConfig());
  }
  EXPECT_EQ(t.num_nodes(), 20000u);
  EXPECT_EQ(t.num_distinct_configs(), 1u);
  EXPECT_EQ(t.ConfigOf(19999).tcp_window_bytes,
            CloudVmNetConfig().tcp_window_bytes);
}

// --- StandardWorld against the paper's tables ---

class StandardWorldTest : public ::testing::Test {
 protected:
  StandardWorldTest()
      : topo_(StandardWorld()), network_(&sim_, &topo_), profiler_(&network_) {
    for (SiteId s = 0; s < kNumStandardSites; ++s) {
      nodes_[s] = topo_.AddNode(
          s, s == kOnPremEu ? OnPremNetConfig() : CloudVmNetConfig());
    }
  }

  double IperfMbps(SiteId from, SiteId to, int streams = 1) {
    auto r = profiler_.Iperf(nodes_[from], nodes_[to], 10.0, streams);
    EXPECT_TRUE(r.ok());
    return BytesPerSecToMbps(r.value_or(0));
  }

  sim::Simulator sim_;
  Topology topo_;
  Network network_;
  Profiler profiler_;
  NodeId nodes_[kNumStandardSites];
};

TEST_F(StandardWorldTest, Table3IntraZoneNearSevenGbps) {
  EXPECT_NEAR(IperfMbps(kGcUs, kGcUs), 6900, 70);
}

TEST_F(StandardWorldTest, Table3TransatlanticSingleStream) {
  EXPECT_NEAR(IperfMbps(kGcUs, kGcEu), 210, 10);
}

TEST_F(StandardWorldTest, Table3WorstLinkEuAsia) {
  EXPECT_NEAR(IperfMbps(kGcEu, kGcAsia), 80, 5);
  auto ping = profiler_.PingMs(nodes_[kGcEu], nodes_[kGcAsia]);
  ASSERT_TRUE(ping.ok());
  EXPECT_NEAR(*ping, 270, 1);
}

TEST_F(StandardWorldTest, Table4InterCloudGcAws) {
  const double mbps = IperfMbps(kGcUs, kAwsUsWest);
  EXPECT_GT(mbps, 1500);
  EXPECT_LT(mbps, 1900);
}

TEST_F(StandardWorldTest, Table5OnPremSingleStreamToEuAndUs) {
  // Paper: 0.45-0.55 Gb/s to the EU T4s; 50-80 Mb/s to the US.
  const double eu = IperfMbps(kOnPremEu, kGcEu);
  EXPECT_GT(eu, 450);
  EXPECT_LT(eu, 560);
  const double us = IperfMbps(kOnPremEu, kGcUs);
  EXPECT_GT(us, 50);
  EXPECT_LT(us, 80);
}

TEST_F(StandardWorldTest, Sec7MultiStreamReachesPhysicalCapacity) {
  // 80 streams: ~6 Gb/s within the EU, ~4 Gb/s to the US (Section 7).
  const double eu = IperfMbps(kOnPremEu, kGcEu, 80);
  EXPECT_NEAR(eu, 6000, 100);
  const double us = IperfMbps(kOnPremEu, kGcUs, 80);
  EXPECT_NEAR(us, 4000, 100);
}

TEST_F(StandardWorldTest, EveryStandardSitePairHasAPath) {
  for (SiteId a = 0; a < kNumStandardSites; ++a) {
    for (SiteId b = 0; b < kNumStandardSites; ++b) {
      EXPECT_TRUE(topo_.PathBetween(a, b).ok())
          << topo_.site(a).name << " <-> " << topo_.site(b).name;
    }
  }
}

// Meter reads settle in-flight flows first. One 1 GB flow inside GC-US
// runs at the intra-zone 6.9 Gb/s = 862.5 MB/s.
TEST_F(StandardWorldTest, MeterReadsCountBytesDeliveredSoFar) {
  const NodeId src = nodes_[kGcUs];
  const NodeId dst = topo_.AddNode(kGcUs, CloudVmNetConfig());
  auto flow = network_.StartFlow(src, dst, 1e9, nullptr);
  ASSERT_TRUE(flow.ok());
  EXPECT_DOUBLE_EQ(network_.FlowRate(*flow), 862.5e6);
  sim_.RunUntil(0.2);
  EXPECT_NEAR(network_.NodeEgressBytes(src), 172.5e6, 1.0);
  EXPECT_NEAR(network_.NodeIngressBytes(dst), 172.5e6, 1.0);
  EXPECT_NEAR(network_.BytesBetweenNodes(src, dst), 172.5e6, 1.0);
  EXPECT_NEAR(network_.BytesBetweenSites(kGcUs, kGcUs), 172.5e6, 1.0);
}

TEST_F(StandardWorldTest, ProviderAndContinentMetadata) {
  EXPECT_EQ(topo_.site(kGcAus).continent, Continent::kAus);
  EXPECT_EQ(topo_.site(kAwsUsWest).provider, Provider::kAws);
  EXPECT_EQ(ContinentName(Continent::kAsia), "ASIA");
}

}  // namespace
}  // namespace hivesim::net

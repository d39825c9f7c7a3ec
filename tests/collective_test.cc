#include <gtest/gtest.h>

#include "collective/allreduce.h"
#include "common/units.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim::collective {
namespace {

using compute::HostClass;
using net::StandardSite;

class AllReduceTest : public ::testing::Test {
 protected:
  AllReduceTest() : topo_(net::StandardWorld()), network_(&sim_, &topo_) {}

  Peer AddPeer(net::SiteId site,
               HostClass host = HostClass::kGcN1Standard8) {
    Peer p;
    p.node = topo_.AddNode(site, site == net::kOnPremEu
                                     ? net::OnPremNetConfig()
                                     : net::CloudVmNetConfig());
    p.host = host;
    return p;
  }

  Result<AllReduceResult> Run(const std::vector<Peer>& peers,
                              AllReduceOptions opts) {
    AllReduce ar(&network_);
    Result<AllReduceResult> out = Status::Internal("pending");
    Status s = ar.Start(peers, opts,
                        [&](Result<AllReduceResult> r) { out = std::move(r); });
    if (!s.ok()) return s;
    sim_.Run();
    return out;
  }

  /// The strategy BuildPlan resolves kAuto to for `peers`.
  Strategy AutoStrategy(const std::vector<Peer>& peers) {
    auto plan = BuildPlan(peers, topo_, Strategy::kAuto);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan->strategy : Strategy::kAuto;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
};

// --- Strategy selection (matches the paper's observed behaviour) ---

TEST_F(AllReduceTest, SmallSingleSiteFleetUsesFlat) {
  std::vector<Peer> peers;
  for (int i = 0; i < 4; ++i) peers.push_back(AddPeer(net::kGcUs));
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kFlatAllToAll);
}

TEST_F(AllReduceTest, LargeSingleSiteFleetUsesRing) {
  std::vector<Peer> peers;
  for (int i = 0; i < 8; ++i) peers.push_back(AddPeer(net::kGcUs));
  EXPECT_EQ(AutoStrategy(peers), Strategy::kRing);
  auto plan = BuildPlan(peers, topo_, Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->stages.size(), 1u);
  EXPECT_EQ(plan->TotalTransfers(), 8);  // One successor flow per peer.
  // Each flow carries 2(m-1)/m = 1.75 payloads.
  EXPECT_NEAR(plan->stages[0][0].bytes_factor, 1.75, 1e-9);
}

TEST_F(AllReduceTest, SingletonSitesAcrossContinentsUseStar) {
  // C-4: one VM on each of four continents averaged via the US node.
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcEu),
                             AddPeer(net::kGcAsia), AddPeer(net::kGcAus)};
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kStarViaHub);
  auto plan = BuildPlan(peers, topo_, Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  // Iowa is the best-connected region (Table 3) -> hub is peer 0.
  EXPECT_EQ(plan->hub, 0);
}

TEST_F(AllReduceTest, TwoSingletonSitesStayFlat) {
  // B-2: one US + one EU VM -> plain pairwise exchange.
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcEu)};
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kFlatAllToAll);
}

TEST_F(AllReduceTest, MultiPeerSitesAcrossContinentsGoHierarchical) {
  // B-4: two US + two EU VMs -> average locally, then across.
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs),
                             AddPeer(net::kGcEu), AddPeer(net::kGcEu)};
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kHierarchical);
}

TEST_F(AllReduceTest, LopsidedHybridFleetStaysFlat) {
  // Setting E/F: one on-prem machine + a remote cloud pack. No local
  // group forms around the singleton, so averaging stays flat N-to-N.
  std::vector<Peer> peers = {
      AddPeer(net::kOnPremEu, HostClass::kOnPremWorkstation)};
  for (int i = 0; i < 4; ++i) {
    peers.push_back(AddPeer(net::kLambdaUsWest, HostClass::kLambdaA10Host));
  }
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kFlatAllToAll);
}

TEST_F(AllReduceTest, MultiCloudSameContinentStaysFlat) {
  // D-2: 2x GC + 2x AWS, all US: "we have an N-to-N communication".
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs),
                             AddPeer(net::kAwsUsWest, HostClass::kAwsG4dn2xlarge),
                             AddPeer(net::kAwsUsWest, HostClass::kAwsG4dn2xlarge)};
  EXPECT_EQ(AutoStrategy(peers),
            Strategy::kFlatAllToAll);
}

// --- Plan shapes ---

TEST_F(AllReduceTest, FlatPlanHasNTimesNMinusOneTransfers) {
  std::vector<Peer> peers;
  for (int i = 0; i < 4; ++i) peers.push_back(AddPeer(net::kGcUs));
  auto plan = BuildPlan(peers, topo_, Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->stages.size(), 1u);
  EXPECT_EQ(plan->TotalTransfers(), 12);
}

TEST_F(AllReduceTest, C8PlanMatchesPaperTrafficSplit) {
  // C-8: two VMs in each of four regions. Section 5(3): 8/20 internal
  // calls, 12/20 cross-region leader calls.
  std::vector<Peer> peers;
  for (net::SiteId s : {net::kGcUs, net::kGcEu, net::kGcAsia, net::kGcAus}) {
    peers.push_back(AddPeer(s));
    peers.push_back(AddPeer(s));
  }
  auto plan = BuildPlan(peers, topo_, Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, Strategy::kHierarchical);
  ASSERT_EQ(plan->stages.size(), 3u);
  EXPECT_EQ(plan->stages[0].size(), 4u);  // Gather: one per group.
  // Cross-group exchange chunked 2 ways per ordered group pair.
  EXPECT_EQ(plan->stages[1].size(), 24u);
  EXPECT_EQ(plan->stages[2].size(), 4u);  // Scatter.
  // In payload equivalents the traffic matches the paper's 20 "calls":
  // 8 internal + 12 cross-region (Section 5, observation 3).
  double payloads = 0;
  double internal_payloads = 0;
  for (const auto& stage : plan->stages) {
    for (const Transfer& t : stage) payloads += t.bytes_factor;
  }
  for (const Transfer& t : plan->stages[0]) internal_payloads += t.bytes_factor;
  for (const Transfer& t : plan->stages[2]) internal_payloads += t.bytes_factor;
  EXPECT_NEAR(payloads, 20.0, 1e-9);
  EXPECT_NEAR(internal_payloads / payloads, 8.0 / 20.0, 1e-9);
}

// One plan buffer rebuilt through every strategy, growing and shrinking
// its stage list and peer count, must equal a fresh plan each time.
TEST_F(AllReduceTest, RebuiltPlanEqualsAFreshOne) {
  std::vector<Peer> mixed;
  for (net::SiteId s : {net::kGcUs, net::kGcEu, net::kGcAsia}) {
    mixed.push_back(AddPeer(s));
    mixed.push_back(AddPeer(s));
  }
  mixed.push_back(AddPeer(net::kGcUs));
  std::vector<Peer> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(AddPeer(net::kGcUs));
  // One peer per site: hierarchical without local stages.
  const std::vector<Peer> singletons = {AddPeer(net::kGcUs),
                                        AddPeer(net::kGcEu),
                                        AddPeer(net::kGcAus)};
  const struct {
    const std::vector<Peer>* peers;
    Strategy strategy;
    size_t stages;
  } steps[] = {
      {&mixed, Strategy::kHierarchical, 3},
      {&mixed, Strategy::kFlatAllToAll, 1},
      {&mixed, Strategy::kStarViaHub, 1},
      {&ring, Strategy::kRing, 1},
      {&singletons, Strategy::kHierarchical, 1},
      {&mixed, Strategy::kHierarchical, 3},
      {&mixed, Strategy::kAuto, 3},
  };
  Plan reused;
  for (const auto& step : steps) {
    SCOPED_TRACE(StrategyName(step.strategy));
    ASSERT_TRUE(BuildPlan(*step.peers, topo_, step.strategy, &reused).ok());
    auto fresh = BuildPlan(*step.peers, topo_, step.strategy);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(reused.strategy, fresh->strategy);
    EXPECT_EQ(reused.hub, fresh->hub);
    EXPECT_EQ(reused.by_site, fresh->by_site);
    ASSERT_EQ(reused.stages.size(), step.stages);
    ASSERT_EQ(fresh->stages.size(), step.stages);
    for (size_t g = 0; g < step.stages; ++g) {
      ASSERT_EQ(reused.stages[g].size(), fresh->stages[g].size());
      for (size_t i = 0; i < fresh->stages[g].size(); ++i) {
        const Transfer& a = reused.stages[g][i];
        const Transfer& b = fresh->stages[g][i];
        EXPECT_EQ(a.src, b.src);
        EXPECT_EQ(a.dst, b.dst);
        EXPECT_EQ(a.bytes_factor, b.bytes_factor);
      }
    }
  }
}

TEST_F(AllReduceTest, PlanRejectsFewerThanTwoPeers) {
  std::vector<Peer> one = {AddPeer(net::kGcUs)};
  EXPECT_FALSE(BuildPlan(one, topo_, Strategy::kAuto).ok());
}

// --- Execution timing ---

TEST_F(AllReduceTest, TwoPeerIntraZoneRoundIsFast) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs)};
  AllReduceOptions opts;
  opts.payload_bytes = 395.6e6;  // ConvNextLarge FP16 gradient.
  auto r = Run(peers, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // ~2.9 s transfer at the 1.1 Gb/s stream cap plus ~1 s CPU.
  EXPECT_GT(r->wall_sec, 2.0);
  EXPECT_LT(r->wall_sec, 10.0);
  EXPECT_EQ(r->transfers, 2);
}

TEST_F(AllReduceTest, TransatlanticRoundLimitedByPathBandwidth) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcEu)};
  AllReduceOptions opts;
  opts.payload_bytes = 1.12e9;  // RoBERTa-XLM FP16 gradient.
  auto r = Run(peers, opts);
  ASSERT_TRUE(r.ok());
  // 1.12 GB over 210 Mb/s is ~42.7 s; CPU adds a few seconds.
  EXPECT_GT(r->wall_sec, 42.0);
  EXPECT_LT(r->wall_sec, 55.0);
}

TEST_F(AllReduceTest, LargerPayloadTakesLonger) {
  auto run_with_payload = [&](double payload) {
    std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs)};
    AllReduceOptions opts;
    opts.payload_bytes = payload;
    auto r = Run(peers, opts);
    EXPECT_TRUE(r.ok());
    return r->wall_sec;
  };
  EXPECT_LT(run_with_payload(23.4e6),    // RN18
            run_with_payload(395.6e6));  // CONV
}

TEST_F(AllReduceTest, HierarchicalBeatsFlatAcrossTheAtlantic) {
  // 4+4 peers split US/EU: flat pushes 32 transfers of which 16 cross the
  // 210 Mb/s Atlantic path concurrently; hierarchical crosses only twice.
  std::vector<Peer> peers;
  for (int i = 0; i < 4; ++i) peers.push_back(AddPeer(net::kGcUs));
  for (int i = 0; i < 4; ++i) peers.push_back(AddPeer(net::kGcEu));
  AllReduceOptions opts;
  opts.payload_bytes = 395.6e6;
  opts.strategy = Strategy::kHierarchical;
  auto hier = Run(peers, opts);
  ASSERT_TRUE(hier.ok());
  opts.strategy = Strategy::kFlatAllToAll;
  auto flat = Run(peers, opts);
  ASSERT_TRUE(flat.ok());
  EXPECT_LT(hier->wall_sec, flat->wall_sec);
}

TEST_F(AllReduceTest, MultiStreamSpeedsUpHighLatencyTransfer) {
  // The Section 7 insight: the on-prem to US single stream is window
  // limited; multiple streams raise utilization.
  std::vector<Peer> peers = {
      AddPeer(net::kOnPremEu, HostClass::kOnPremWorkstation),
      AddPeer(net::kGcUs)};
  AllReduceOptions opts;
  opts.payload_bytes = 395.6e6;
  opts.streams_per_transfer = 1;
  auto single = Run(peers, opts);
  ASSERT_TRUE(single.ok());
  opts.streams_per_transfer = 8;
  auto multi = Run(peers, opts);
  ASSERT_TRUE(multi.ok());
  EXPECT_LT(multi->wall_sec, single->wall_sec * 0.5);
}

TEST_F(AllReduceTest, EgressMeteredPerPeer) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs),
                             AddPeer(net::kGcUs)};
  AllReduceOptions opts;
  opts.payload_bytes = 100 * kMB;
  auto r = Run(peers, opts);
  ASSERT_TRUE(r.ok());
  // Flat 3-peer round: every peer sends its gradient to 2 others.
  for (const Peer& p : peers) {
    EXPECT_NEAR(network_.NodeEgressBytes(p.node), 200 * kMB, kMB);
  }
}

TEST_F(AllReduceTest, AbortCancelsFlowsAndReportsUnavailable) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcEu)};
  AllReduce ar(&network_);
  Result<AllReduceResult> out = Status::Internal("pending");
  AllReduceOptions opts;
  opts.payload_bytes = 1e9;
  ASSERT_TRUE(
      ar.Start(peers, opts, [&](Result<AllReduceResult> r) { out = r; }).ok());
  sim_.RunUntil(5.0);
  ar.Abort();
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  sim_.Run();  // No stray callbacks fire afterwards.
  EXPECT_FALSE(ar.running());
}

TEST_F(AllReduceTest, SecondRoundWhileRunningIsRejected) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs)};
  AllReduce ar(&network_);
  AllReduceOptions opts;
  opts.payload_bytes = 1e9;
  ASSERT_TRUE(ar.Start(peers, opts, [](Result<AllReduceResult>) {}).ok());
  EXPECT_EQ(ar.Start(peers, opts, [](Result<AllReduceResult>) {}).code(),
            StatusCode::kFailedPrecondition);
  sim_.Run();
}

TEST_F(AllReduceTest, InvalidPayloadRejected) {
  std::vector<Peer> peers = {AddPeer(net::kGcUs), AddPeer(net::kGcUs)};
  AllReduce ar(&network_);
  AllReduceOptions opts;
  opts.payload_bytes = 0;
  EXPECT_EQ(ar.Start(peers, opts, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AllReduceTest, StrategyNames) {
  EXPECT_EQ(StrategyName(Strategy::kStarViaHub), "star-via-hub");
  EXPECT_EQ(StrategyName(Strategy::kHierarchical), "hierarchical");
}

}  // namespace
}  // namespace hivesim::collective

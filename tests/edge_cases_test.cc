// Edge cases across modules: format boundaries, timing corner cases, and
// lifecycle quirks that the main suites don't reach.

#include <gtest/gtest.h>

#include "collective/allreduce.h"
#include "common/units.h"
#include "core/granularity.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim {
namespace {

// --- Granularity classifier ---

TEST(GranularityTest, BucketsMatchPaperThresholds) {
  using core::ClassifyGranularity;
  using core::Suitability;
  // C-8 NLP at 0.4: "the task is no longer suitable" (Section 4(C)).
  EXPECT_EQ(ClassifyGranularity(0.4), Suitability::kUnsuitable);
  // B-6 NLP at 1.03: adding GPUs bought only 15%.
  EXPECT_EQ(ClassifyGranularity(1.03), Suitability::kMarginal);
  // B-2 NLP at 2.21: adding GPUs bought 77%.
  EXPECT_EQ(ClassifyGranularity(2.21), Suitability::kGood);
  // CONV at 21.6: "strong scaling potential".
  EXPECT_EQ(ClassifyGranularity(21.6), Suitability::kExcellent);
  // Boundaries.
  EXPECT_EQ(ClassifyGranularity(8.0), Suitability::kExcellent);
  EXPECT_EQ(ClassifyGranularity(2.0), Suitability::kGood);
  EXPECT_EQ(ClassifyGranularity(0.5), Suitability::kMarginal);
  EXPECT_EQ(ClassifyGranularity(0.0), Suitability::kUnsuitable);
}

TEST(GranularityTest, NamesAndAdviceNonEmpty) {
  for (auto s : {core::Suitability::kExcellent, core::Suitability::kGood,
                 core::Suitability::kMarginal,
                 core::Suitability::kUnsuitable}) {
    EXPECT_FALSE(core::SuitabilityName(s).empty());
    EXPECT_FALSE(core::SuitabilityAdvice(s).empty());
  }
}

// --- Collective timing corner cases ---

class CollectiveEdgeTest : public ::testing::Test {
 protected:
  CollectiveEdgeTest() : topo_(net::StandardWorld()), network_(&sim_, &topo_) {}

  collective::Peer AddPeer(net::SiteId site) {
    collective::Peer p;
    p.node = topo_.AddNode(site, net::CloudVmNetConfig());
    return p;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
};

TEST_F(CollectiveEdgeTest, StarPipelinesGatherAndScatter) {
  // The star plan runs gather+scatter as one stage: wall clock close to
  // one direction's transfer, not two.
  std::vector<collective::Peer> peers = {
      AddPeer(net::kGcUs), AddPeer(net::kGcEu), AddPeer(net::kGcAsia),
      AddPeer(net::kGcAus)};
  auto plan = collective::BuildPlan(peers, topo_,
                                    collective::Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, collective::Strategy::kStarViaHub);
  ASSERT_EQ(plan->stages.size(), 1u);
  EXPECT_EQ(plan->stages[0].size(), 6u);  // 3 in + 3 out via the hub.

  collective::AllReduce ar(&network_);
  collective::AllReduceOptions opts;
  opts.payload_bytes = 395.6e6;
  Result<collective::AllReduceResult> out = Status::Internal("pending");
  ASSERT_TRUE(
      ar.Start(peers, opts, [&](auto r) { out = std::move(r); }).ok());
  sim_.Run();
  ASSERT_TRUE(out.ok());
  // The slowest spoke is AUS at 120 Mb/s single stream: ~26 s one way.
  EXPECT_GT(out->wall_sec, 25.0);
  EXPECT_LT(out->wall_sec, 45.0);  // Far less than 2 sequential stages.
}

TEST_F(CollectiveEdgeTest, RingRoundTimeMatchesChunkedModel) {
  std::vector<collective::Peer> peers;
  for (int i = 0; i < 8; ++i) peers.push_back(AddPeer(net::kGcUs));
  collective::AllReduce ar(&network_);
  collective::AllReduceOptions opts;
  opts.payload_bytes = 395.6e6;
  opts.strategy = collective::Strategy::kRing;
  Result<collective::AllReduceResult> out = Status::Internal("pending");
  ASSERT_TRUE(
      ar.Start(peers, opts, [&](auto r) { out = std::move(r); }).ok());
  sim_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->transfers, 8);
  // 1.75 payloads at the 1.1 Gb/s stream cap ~= 5 s, plus CPU costs.
  EXPECT_GT(out->wall_sec, 5.0);
  EXPECT_LT(out->wall_sec, 12.0);
}

TEST_F(CollectiveEdgeTest, ForcedStrategyOverridesAuto) {
  std::vector<collective::Peer> peers = {AddPeer(net::kGcUs),
                                         AddPeer(net::kGcUs)};
  auto plan = collective::BuildPlan(peers, topo_,
                                    collective::Strategy::kStarViaHub);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->strategy, collective::Strategy::kStarViaHub);
}

// --- Trainer lifecycle quirks ---

class TrainerEdgeTest : public ::testing::Test {
 protected:
  TrainerEdgeTest() : topo_(net::StandardWorld()), network_(&sim_, &topo_) {}

  hivemind::PeerSpec MakePeer() {
    hivemind::PeerSpec p;
    p.node = topo_.AddNode(net::kGcUs, net::CloudVmNetConfig());
    return p;
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
};

TEST_F(TrainerEdgeTest, StopAndResumeContinuesAccumulatingStats) {
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kResNet50;
  hivemind::Trainer trainer(&network_, config);
  ASSERT_TRUE(trainer.AddPeer(MakePeer()).ok());
  ASSERT_TRUE(trainer.AddPeer(MakePeer()).ok());
  ASSERT_TRUE(trainer.Start().ok());
  sim_.RunUntil(0.5 * kHour);
  trainer.Stop();
  const int first_epochs = trainer.Stats().epochs;
  EXPECT_GT(first_epochs, 0);
  // Resume: a second Start picks up where Stop left off.
  ASSERT_TRUE(trainer.Start().ok());
  sim_.RunUntil(kHour);
  trainer.Stop();
  EXPECT_GT(trainer.Stats().epochs, first_epochs);
}

TEST_F(TrainerEdgeTest, DoubleStartRejected) {
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kResNet50;
  hivemind::Trainer trainer(&network_, config);
  ASSERT_TRUE(trainer.AddPeer(MakePeer()).ok());
  ASSERT_TRUE(trainer.Start().ok());
  EXPECT_EQ(trainer.Start().code(), StatusCode::kFailedPrecondition);
  trainer.Stop();
}

TEST_F(TrainerEdgeTest, RemoveAllPeersThenRejoinRecovers) {
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kResNet50;
  hivemind::Trainer trainer(&network_, config);
  auto a = MakePeer();
  auto b = MakePeer();
  ASSERT_TRUE(trainer.AddPeer(a).ok());
  ASSERT_TRUE(trainer.AddPeer(b).ok());
  ASSERT_TRUE(trainer.Start().ok());
  sim_.RunUntil(600);
  ASSERT_TRUE(trainer.RemovePeer(a.node).ok());
  ASSERT_TRUE(trainer.RemovePeer(b.node).ok());
  EXPECT_EQ(trainer.ActivePeers(), 0);
  const int stalled_epochs = trainer.current_epoch();
  sim_.RunUntil(1200);  // Nothing happens while the swarm is empty.
  EXPECT_EQ(trainer.current_epoch(), stalled_epochs);
  ASSERT_TRUE(trainer.JoinPeer(MakePeer()).ok());
  sim_.RunUntil(1200 + kHour);
  trainer.Stop();
  EXPECT_GT(trainer.current_epoch(), stalled_epochs);
}

TEST_F(TrainerEdgeTest, PeerNodesTracksMembership) {
  hivemind::TrainerConfig config;
  config.model = models::ModelId::kResNet50;
  hivemind::Trainer trainer(&network_, config);
  auto a = MakePeer();
  auto b = MakePeer();
  ASSERT_TRUE(trainer.AddPeer(a).ok());
  ASSERT_TRUE(trainer.AddPeer(b).ok());
  EXPECT_TRUE(trainer.PeerSpecOf(a.node).ok());
  EXPECT_TRUE(trainer.PeerSpecOf(b.node).ok());
  EXPECT_EQ(trainer.ActivePeers(), 2);
  ASSERT_TRUE(trainer.RemovePeer(a.node).ok());
  EXPECT_FALSE(trainer.PeerSpecOf(a.node).ok());
  EXPECT_TRUE(trainer.PeerSpecOf(b.node).ok());
  EXPECT_EQ(trainer.ActivePeers(), 1);
}

}  // namespace
}  // namespace hivesim

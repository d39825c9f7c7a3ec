// End-to-end integration tests: whole experiments through the public API,
// cross-module consistency (trainer <-> network meters <-> cost engine),
// determinism, and failure injection with live VM churn.

#include <gtest/gtest.h>

#include <memory>

#include "cloud/spot_market.h"
#include "cloud/vm.h"
#include "common/units.h"
#include "core/advisor.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "data/loader.h"
#include "hivemind/monitor.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"
#include "tour_world.h"

namespace hivesim {
namespace {

using models::ModelId;

TEST(IntegrationTest, ExperimentIsDeterministicPerSeed) {
  core::ExperimentConfig config;
  config.model = ModelId::kRobertaXlm;
  config.seed = 1234;
  const core::ClusterSpec cluster = core::BSeries()[1].cluster;  // B-4.
  auto a = core::RunHivemindExperiment(cluster, config);
  auto b = core::RunHivemindExperiment(cluster, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->train.throughput_sps, b->train.throughput_sps);
  EXPECT_DOUBLE_EQ(a->fleet_cost.Total(), b->fleet_cost.Total());
  EXPECT_EQ(a->train.epochs, b->train.epochs);
}

TEST(IntegrationTest, EgressMetersMatchGradientTraffic) {
  // A-4 flat all-to-all: per epoch every VM ships its FP16 gradient to
  // the 3 others; the network meters must account exactly that.
  core::ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  config.duration_sec = kHour;
  auto result = core::RunHivemindExperiment(core::ASeries()[3].cluster,
                                            config);
  ASSERT_TRUE(result.ok());
  const double grad = models::GetModelSpec(config.model).GradientBytesFp16();
  const double expected_per_vm = result->train.epochs * 3 * grad;
  for (const auto& usage : result->usages) {
    double sent = 0;
    for (const auto& [site, bytes] : usage.egress_bytes_by_dst) sent += bytes;
    EXPECT_NEAR(sent, expected_per_vm, expected_per_vm * 0.02);
  }
}

TEST(IntegrationTest, RingHalvesPerVmTrafficVsFlat) {
  core::ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  config.duration_sec = kHour;
  config.strategy = collective::Strategy::kFlatAllToAll;
  auto flat = core::RunHivemindExperiment(core::ASeries()[5].cluster, config);
  config.strategy = collective::Strategy::kRing;
  auto ring = core::RunHivemindExperiment(core::ASeries()[5].cluster, config);
  ASSERT_TRUE(flat.ok() && ring.ok());
  // Flat: 7 payloads per VM per epoch; ring: 1.75.
  const double flat_per_epoch =
      flat->usages[0].egress_bytes_by_dst[0].second / flat->train.epochs;
  const double ring_per_epoch =
      ring->usages[0].egress_bytes_by_dst[0].second / ring->train.epochs;
  EXPECT_NEAR(flat_per_epoch / ring_per_epoch, 4.0, 0.2);
}

TEST(IntegrationTest, DataLoadingCostMatchesProcessedSamples) {
  core::ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  config.duration_sec = kHour;
  auto result = core::RunHivemindExperiment(core::ASeries()[1].cluster,
                                            config);
  ASSERT_TRUE(result.ok());
  const auto& profile = data::DatasetFor(config.model);
  const double expected_bytes =
      result->train.total_samples * profile.sample_bytes;
  double streamed = 0;
  for (const auto& usage : result->usages) {
    streamed += usage.data_ingress_bytes;
  }
  EXPECT_NEAR(streamed, expected_bytes, expected_bytes * 0.02);
  EXPECT_NEAR(result->fleet_cost.data_loading, streamed / kGB * 0.01,
              1e-6);
}

TEST(IntegrationTest, FullGeoRunWithMonitorAndChurn) {
  // The whole stack at once: an 8-VM two-continent fleet built and armed
  // by core::BuildExperimentWorld with the bad-afternoon pack, scraped by
  // the monitor, surviving a transatlantic partition, a crash and the
  // replacement's join.
  core::ExperimentConfig config;
  config.duration_sec = 2 * kHour;
  const scenario::ScenarioPack pack = tour::BadAfternoonPack();
  auto world = core::BuildExperimentWorld(
      core::ClusterSpec{
          {core::GcT4s(4, net::kGcUs), core::GcT4s(4, net::kGcEu)}},
      config, &pack);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  sim::Simulator& sim = (*world)->sim;
  hivemind::Trainer& trainer = *(*world)->trainer;

  hivemind::TrainingMonitor monitor(&sim, &trainer, 5.0);
  ASSERT_TRUE(trainer.Start().ok());
  monitor.Start();

  sim.RunUntil(2 * kHour);
  trainer.Stop();
  monitor.Stop();

  const auto stats = trainer.Stats();
  EXPECT_GT(stats.epochs, 20);
  EXPECT_GT(stats.throughput_sps, 150);  // Still scaling transatlantic.
  EXPECT_GT(monitor.snapshots().size(), 1000u);
  // The monitor saw the dip to 7 peers and the recovery to 8.
  int min_peers = 99, max_peers = 0;
  for (const auto& snap : monitor.snapshots()) {
    min_peers = std::min(min_peers, snap.active_peers);
    max_peers = std::max(max_peers, snap.active_peers);
  }
  EXPECT_EQ(min_peers, 7);
  EXPECT_EQ(max_peers, 8);
}

TEST(IntegrationTest, VmChurnLoopKeepsTrainingAlive) {
  // Aggressive market: every VM dies repeatedly over two simulated days;
  // auto-restart + JoinPeer keep the swarm training throughout.
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  cloud::SpotMarket market(Rng(5));
  market.AddHazardWindow({net::Continent::kUs, 0, 49 * kHour, 500});

  hivemind::TrainerConfig config;
  config.model = ModelId::kResNet50;
  hivemind::Trainer trainer(&network, config);
  std::vector<std::unique_ptr<cloud::VmInstance>> vms;
  int interruptions = 0;
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec peer;
    peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
    ASSERT_TRUE(trainer.AddPeer(peer).ok());
    auto vm = std::make_unique<cloud::VmInstance>(&sim, &market,
                                                  net::Continent::kUs);
    auto* raw = vm.get();
    raw->on_interrupted = [&trainer, &interruptions, peer] {
      ++interruptions;
      trainer.RemovePeer(peer.node).ok();
    };
    raw->on_running = [&trainer, peer, raw] {
      if (raw->interruptions() > 0) trainer.JoinPeer(peer).ok();
    };
    vms.push_back(std::move(vm));
  }
  for (auto& vm : vms) vm->Start();
  sim.RunUntil(cloud::SpotMarket::kVmStartupMaxSec + 1);
  ASSERT_TRUE(trainer.Start().ok());
  sim.RunUntil(sim.Now() + 48 * kHour);
  trainer.Stop();
  for (auto& vm : vms) vm->Stop();

  EXPECT_GT(interruptions, 3);  // The market was genuinely hostile.
  const auto stats = trainer.Stats();
  EXPECT_GT(stats.epochs, 100);  // And training kept going regardless.
  EXPECT_GT(stats.throughput_sps, 0);
}

TEST(IntegrationTest, AdvisorPrefersLambdaForCvAndDgxForNlp) {
  // The paper's bottom line, produced end-to-end by the advisor: for the
  // high-granularity CV model, distributed spot fleets beat the DGX-2;
  // for low-granularity NLP, the DGX-2 is the better value.
  core::AdvisorRequest cv;
  cv.model = ModelId::kConvNextLarge;
  cv.fleet_sizes = {8};
  cv.min_throughput_sps = 400;
  auto cv_options = core::RankTrainingOptions(cv);
  ASSERT_TRUE(cv_options.ok());
  EXPECT_NE(cv_options->front().description.find("lambda"),
            std::string::npos);

  core::AdvisorRequest nlp;
  nlp.model = ModelId::kRobertaXlm;
  nlp.fleet_sizes = {8};
  nlp.min_throughput_sps = 1500;
  auto nlp_options = core::RankTrainingOptions(nlp);
  ASSERT_TRUE(nlp_options.ok());
  EXPECT_NE(nlp_options->front().description.find("DGX-2"),
            std::string::npos);
}

TEST(IntegrationTest, WhisperCaseStudyEndToEnd) {
  // Section 11 in one test: TBS 256 gives no benefit over a single T4;
  // TBS 1024 yields a ~2.2x speedup on 8 T4s.
  auto run = [&](int tbs) {
    core::ClusterSpec fleet;
    fleet.groups = {core::GcT4s(8)};
    core::ExperimentConfig config;
    config.model = ModelId::kWhisperSmall;
    config.target_batch_size = tbs;
    config.duration_sec = 3 * kHour;
    auto result = core::RunHivemindExperiment(fleet, config);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->train.throughput_sps : 0.0;
  };
  const double baseline = 12.7;
  EXPECT_LT(run(256), baseline * 1.5);
  EXPECT_NEAR(run(1024) / baseline, 2.2, 0.6);
}

}  // namespace
}  // namespace hivesim

// Tests for the extension modules: experiment reports, the DHT progress
// board, and config validation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/units.h"
#include "core/catalog.h"
#include "core/report.h"
#include "hivemind/progress_board.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace hivesim {
namespace {

using models::ModelId;

// --- ReportBuilder ---

core::ExperimentResult RunA(int vms) {
  core::ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  config.duration_sec = kHour;
  core::ClusterSpec cluster;
  cluster.groups = {core::GcT4s(vms)};
  auto result = core::RunHivemindExperiment(cluster, config);
  EXPECT_TRUE(result.ok());
  return result.value_or(core::ExperimentResult{});
}

TEST(ReportTest, TableAndCsvCarryAllRows) {
  core::ReportBuilder report("A series");
  report.Add("A-2", RunA(2));
  report.Add("A-4", RunA(4));
  EXPECT_EQ(report.size(), 2u);

  std::ostringstream os;
  report.PrintTable(os);
  EXPECT_NE(os.str().find("A series"), std::string::npos);
  EXPECT_NE(os.str().find("A-4"), std::string::npos);

  const std::string csv = report.ToCsv();
  EXPECT_NE(csv.find("experiment,sps"), std::string::npos);
  // Header + 2 data rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(ReportTest, WriteCsvCreatesReadableFile) {
  core::ReportBuilder report("x");
  report.Add("A-2", RunA(2));
  const auto path =
      (std::filesystem::temp_directory_path() / "hivesim_report.csv")
          .string();
  ASSERT_TRUE(report.WriteCsv(path));
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_NE(header.find("usd_per_million"), std::string::npos);
  EXPECT_FALSE(report.WriteCsv("/nonexistent-dir/x.csv"));
}

TEST(ReportTest, SpeedupsNormalizeAgainstBaseline) {
  core::ReportBuilder report("x");
  report.Add("A-2", RunA(2));
  report.Add("A-8", RunA(8));
  const auto speedups = report.SpeedupsVs(80.0);
  ASSERT_EQ(speedups.size(), 2u);
  EXPECT_GT(speedups[1], speedups[0]);
  EXPECT_NEAR(speedups[1], 3.5, 0.5);
}

// --- Trainer config validation ---

TEST(ValidationTest, RejectsDegenerateConfigs) {
  hivemind::TrainerConfig config;
  config.target_batch_size = 0;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = hivemind::TrainerConfig{};
  config.streams_per_transfer = 0;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  config = hivemind::TrainerConfig{};
  config.matchmaking_jitter_frac = -1;
  EXPECT_EQ(hivemind::ValidateTrainerConfig(config).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(hivemind::ValidateTrainerConfig(hivemind::TrainerConfig{}).ok());
}

TEST(ValidationTest, StartFailsOnBadConfig) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  hivemind::TrainerConfig config;
  config.target_batch_size = -5;
  hivemind::Trainer trainer(&network, config);
  hivemind::PeerSpec peer;
  peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
  ASSERT_TRUE(trainer.AddPeer(peer).ok());
  EXPECT_EQ(trainer.Start().code(), StatusCode::kInvalidArgument);
}

// --- DHT progress board ---

class ProgressBoardTest : public ::testing::Test {
 protected:
  ProgressBoardTest()
      : topo_(net::StandardWorld()),
        network_(&sim_, &topo_),
        dht_(&network_),
        trainer_(&network_, MakeConfig()) {}

  static hivemind::TrainerConfig MakeConfig() {
    hivemind::TrainerConfig config;
    config.model = ModelId::kConvNextLarge;
    return config;
  }

  void BuildSwarm(int n) {
    Rng rng(17);
    for (int i = 0; i < n; ++i) {
      hivemind::PeerSpec peer;
      peer.node = topo_.AddNode(net::kGcUs, net::CloudVmNetConfig());
      ASSERT_TRUE(trainer_.AddPeer(peer).ok());
      dht_nodes_.push_back(dht_.CreateNode(peer.node, rng.Next64()));
    }
    for (size_t i = 1; i < dht_nodes_.size(); ++i) {
      dht_nodes_[i]->Bootstrap(
          dht::Contact{dht_nodes_[0]->id(), dht_nodes_[0]->endpoint()},
          [](std::vector<dht::Contact>) {});
      sim_.Run();
    }
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
  dht::DhtNetwork dht_;
  hivemind::Trainer trainer_;
  std::vector<dht::Node*> dht_nodes_;
};

TEST_F(ProgressBoardTest, ParseRoundTrip) {
  auto p = hivemind::ParseProgressValue("epoch=3;progress=0.4200");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->epoch, 3);
  EXPECT_NEAR(p->progress, 0.42, 1e-9);
  EXPECT_TRUE(p->reachable);
  EXPECT_EQ(hivemind::ParseProgressValue("garbage").status().code(),
            StatusCode::kCorruption);
}

TEST_F(ProgressBoardTest, SnapshotSeesEveryPeer) {
  BuildSwarm(4);
  hivemind::DhtProgressBoard board(&dht_, &trainer_, "run-1");
  ASSERT_TRUE(trainer_.Start().ok());
  board.Start(/*interval_sec=*/5.0);
  sim_.RunUntil(120.0);  // Training underway, several publications.
  EXPECT_GT(board.publications(), 10);

  std::vector<hivemind::PeerProgress> snapshot;
  bool done = false;
  board.Snapshot(dht_nodes_[3], [&](std::vector<hivemind::PeerProgress> s) {
    snapshot = std::move(s);
    done = true;
  });
  sim_.RunUntil(sim_.Now() + 30.0);
  trainer_.Stop();
  board.Stop();
  ASSERT_TRUE(done);
  ASSERT_EQ(snapshot.size(), 4u);
  for (const auto& peer : snapshot) {
    EXPECT_TRUE(peer.reachable) << "peer " << peer.node;
    EXPECT_GE(peer.progress, 0.0);
    EXPECT_LE(peer.progress, 1.0);
  }
}

TEST_F(ProgressBoardTest, CrashedPeerEntriesExpire) {
  BuildSwarm(3);
  hivemind::DhtProgressBoard board(&dht_, &trainer_, "run-2");
  ASSERT_TRUE(trainer_.Start().ok());
  board.Start(5.0);
  sim_.RunUntil(30.0);

  // Peer 1's VM dies: its DHT node goes dark and it stops publishing.
  const net::NodeId dead = trainer_.PeerNodes()[1];
  dht_.NodeAt(dead)->GoOffline();
  // Past the TTL (4 intervals), its entries expire everywhere.
  sim_.RunUntil(sim_.Now() + 60.0);

  std::vector<hivemind::PeerProgress> snapshot;
  board.Snapshot(dht_nodes_[0], [&](std::vector<hivemind::PeerProgress> s) {
    snapshot = std::move(s);
  });
  sim_.RunUntil(sim_.Now() + 30.0);
  trainer_.Stop();
  board.Stop();
  ASSERT_EQ(snapshot.size(), 3u);
  int unreachable = 0;
  for (const auto& peer : snapshot) {
    if (!peer.reachable) {
      ++unreachable;
      EXPECT_EQ(peer.node, dead);
    }
  }
  EXPECT_EQ(unreachable, 1);
}

}  // namespace
}  // namespace hivesim

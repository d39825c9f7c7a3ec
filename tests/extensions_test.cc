// Tests for the extension modules: experiment reports and config
// validation.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/units.h"
#include "core/catalog.h"
#include "core/report.h"
#include "hivemind/trainer.h"
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
  ASSERT_TRUE(report.WriteCsv(path).ok());
  std::ifstream f(path);
  std::string header;
  std::getline(f, header);
  EXPECT_NE(header.find("usd_per_million"), std::string::npos);
  const Status bad = report.WriteCsv("/nonexistent-dir/x.csv");
  EXPECT_EQ(bad.code(), StatusCode::kIOError);
  EXPECT_EQ(bad.message(), "cannot write /nonexistent-dir/x.csv");
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

}  // namespace
}  // namespace hivesim

// Golden regression corpus: byte-exact renderings of one representative
// cell from each headline result — Fig. 1 (cost/throughput of an 8xT4
// Hivemind fleet), Fig. 3 (model suitability on 2xA10), and Table 4
// (multi-cloud network profile) — plus one Section 7 chaos sweep over
// every builtin scenario pack, and the full `hivesim reproduce` output. A diff here means simulated physics or
// a serialization schema moved; if the change is intentional, regenerate
// with
//
//   build/tests/golden_test --update-golden
//
// and review the golden diff like any other code change. Goldens live in
// tests/golden/ (HIVESIM_GOLDEN_DIR is baked in by CMake so the test can
// run from any working directory).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep_runner.h"
#include "net/profiler.h"
#include "net/profiles.h"
#include "reproduce/reproduce.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace hivesim::core {
namespace {

bool g_update_golden = false;

std::string GoldenPath(const std::string& name) {
  return std::string(HIVESIM_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void CompareOrUpdate(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    std::printf("updated %s (%zu bytes)\n", path.c_str(), actual.size());
    return;
  }
  const std::string expected = ReadFileOrEmpty(path);
  ASSERT_FALSE(expected.empty())
      << path << " is missing; regenerate with --update-golden";
  EXPECT_EQ(actual, expected)
      << name << " drifted from its golden. If the change is intentional, "
      << "rerun with --update-golden and review the diff.";
}

// Fig. 1's decentralized contender: 8 spot T4s in one GC zone training
// ConvNextLarge at TBS 32768 for two simulated hours. The golden pins the
// full report schema — throughput, calc/comm split, granularity, and all
// four cost columns.
TEST(GoldenTest, Fig1HivemindCell) {
  ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.target_batch_size = 32768;
  config.duration_sec = 2 * kHour;
  auto result = RunHivemindExperiment({{GcT4s(8)}}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ReportBuilder report("Fig. 1 golden cell: 8xT4 Hivemind");
  report.Add("8xT4 spot", *result);
  CompareOrUpdate("fig1_8xt4_conv_tbs32768.json", report.ToJson() + "\n");
  CompareOrUpdate("fig1_8xt4_conv_tbs32768.csv", report.ToCsv());
}

// Fig. 3's suitability probe: 2 Lambda A10s, one hour, TBS 16384 — the
// geometry the paper uses to separate communication-bound from
// calculation-bound models.
TEST(GoldenTest, Fig3SuitabilityCell) {
  ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.target_batch_size = 16384;
  config.duration_sec = 1 * kHour;
  auto result = RunHivemindExperiment({{LambdaA10s(2)}}, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ReportBuilder report("Fig. 3 golden cell: 2xA10 suitability");
  report.Add("2xA10 CONV tbs16384", *result);
  CompareOrUpdate("fig3_2xa10_conv_tbs16384.json", report.ToJson() + "\n");
}

// Table 4: the simulated iperf/ping matrix between GC, AWS and Azure in
// the US. Serialized as JSON (Gb/s to 4 significant digits is implicit in
// the writer's %.10g — the numbers are exact model outputs, not samples).
TEST(GoldenTest, Table4MulticloudNetwork) {
  constexpr net::SiteId kClouds[] = {net::kGcUs, net::kAwsUsWest,
                                     net::kAzureUsSouth};
  constexpr const char* kNames[] = {"gc", "aws", "azure"};

  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  net::Profiler profiler(&network);
  net::NodeId nodes[3];
  for (int i = 0; i < 3; ++i) {
    nodes[i] = topo.AddNode(kClouds[i], net::CloudVmNetConfig());
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("iperf_gbps").BeginObject();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      const double bps =
          profiler.Iperf(nodes[i], nodes[j], 10.0).value_or(0);
      json.Key(StrCat(kNames[i], "_to_", kNames[j]))
          .Number(BytesPerSecToGbps(bps));
    }
  }
  json.EndObject();
  json.Key("ping_ms").BeginObject();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      json.Key(StrCat(kNames[i], "_to_", kNames[j]))
          .Number(profiler.PingMs(nodes[i], nodes[j]).value_or(0));
    }
  }
  json.EndObject();
  json.EndObject();
  CompareOrUpdate("table4_multicloud_network.json", json.ToString() + "\n");
}

// Section 7's chaos axis end to end: series C (intercontinental) under
// no chaos and every builtin scenario pack for one hour, with per-run
// telemetry on. The three files are exactly what `hivesim sweep --series
// C --chaos none,wan-degrade,partition,churn,zone-diurnal --hours 1
// --telemetry --out DIR` writes, so they pin cell order and names, the
// churn hardening, pack compilation, the chaos fingerprints, and the
// merged telemetry of armed worlds.
TEST(GoldenTest, SeriesCChaosSweep) {
  SweepSpec spec;
  spec.clusters = CSeries();
  spec.chaos = {{"none", std::nullopt}};
  for (const char* name :
       {"wan-degrade", "partition", "churn", "zone-diurnal"}) {
    auto pack = scenario::BuiltinScenario(name);
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    spec.chaos.push_back({name, *pack});
  }
  spec.duration_sec = 1 * kHour;
  SweepOptions options;
  options.per_run_telemetry = true;
  auto summary = RunSweep(spec, options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_EQ(summary->failures, 0);

  CompareOrUpdate("sweep_c_chaos_manifest.json",
                  summary->manifest_json + "\n");
  CompareOrUpdate("sweep_c_chaos_report.json", summary->report_json + "\n");
  CompareOrUpdate("sweep_c_chaos_metrics_merged.json",
                  summary->merged_metrics_json + "\n");
}

// Every table, figure and ablation `hivesim reproduce` prints, in
// registry order. The golden was recorded from the per-figure bench
// binaries the registry replaced, so it pins that fold as well as the
// physics. The output must not depend on the sweep thread count.
TEST(GoldenTest, ReproduceAll) {
  for (const int threads : {1, 4}) {
    reproduce::Options options;
    options.threads = threads;
    std::ostringstream out;
    auto anchors = reproduce::Reproduce(options, out);
    ASSERT_TRUE(anchors.ok()) << anchors.status().ToString();
    CompareOrUpdate("reproduce_all.txt", out.str());
  }
}

}  // namespace
}  // namespace hivesim::core

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      hivesim::core::g_update_golden = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

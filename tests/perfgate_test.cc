#include "perfgate/perfgate.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/json_parse.h"
#include "common/strings.h"

namespace hivesim::perfgate {
namespace {

namespace fs = std::filesystem;

/// Writes synthetic BENCH_<area>.json pairs into fresh temp directories
/// and runs the gate over them — the comparator's contract (including
/// "CI fails on a 2x slowdown") is covered here without timing anything.
class PerfGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("perfgate_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    baseline_dir_ = (root_ / "baseline").string();
    current_dir_ = (root_ / "current").string();
    fs::create_directories(baseline_dir_);
    fs::create_directories(current_dir_);
  }

  void TearDown() override { fs::remove_all(root_); }

  void WriteArea(const std::string& dir, const std::string& area,
                 const std::string& body) {
    std::ofstream out(dir + "/BENCH_" + area + ".json");
    out << body;
  }

  GateOptions Options(const std::string& area) {
    GateOptions options;
    options.baseline_dir = baseline_dir_;
    options.current_dir = current_dir_;
    options.areas = {area};
    return options;
  }

  fs::path root_;
  std::string baseline_dir_;
  std::string current_dir_;
};

TEST_F(PerfGateTest, IdenticalArtifactsPass) {
  const std::string doc =
      R"({"area":"kernel_sim","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
      R"("checks":{"fired":42},"schema":"hivesim-bench/1"})";
  WriteArea(baseline_dir_, "kernel_sim", doc);
  WriteArea(current_dir_, "kernel_sim", doc);

  auto report = perfgate::Run(Options("kernel_sim"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed);
  EXPECT_EQ(report->regressions, 0);
  EXPECT_EQ(report->rows.size(), 2u);  // One bench + one check.
}

TEST_F(PerfGateTest, TwoTimesSlowdownFails) {
  WriteArea(baseline_dir_, "kernel_sim",
            R"({"area":"kernel_sim",)"
            R"("benches":{"BM_X/1":{"ns_per_iter":1000}},"checks":{}})");
  WriteArea(current_dir_, "kernel_sim",
            R"({"area":"kernel_sim",)"
            R"("benches":{"BM_X/1":{"ns_per_iter":2000}},"checks":{}})");

  auto report = perfgate::Run(Options("kernel_sim"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->regressions, 1);
  ASSERT_EQ(report->rows.size(), 1u);
  EXPECT_EQ(report->rows[0].status, RowStatus::kRegressed);
  // The before/after table names the offender with both numbers.
  const std::string table = FormatReport(*report);
  EXPECT_NE(table.find("BM_X/1"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
}

TEST_F(PerfGateTest, SlowdownWithinThresholdPasses) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1200}}})");
  auto report = perfgate::Run(Options("a"));  // Default threshold 25%.
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failed);
  EXPECT_EQ(report->rows[0].status, RowStatus::kOk);
}

TEST_F(PerfGateTest, ImprovementPasses) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":400}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failed);
  EXPECT_EQ(report->improvements, 1);
  EXPECT_EQ(report->rows[0].status, RowStatus::kImproved);
}

TEST_F(PerfGateTest, NewBenchWithoutBaselineWarnsNotFails) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000},)"
            R"("BM_Y/1":{"ns_per_iter":500}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failed);
  EXPECT_EQ(report->new_benches, 1);
  const std::string table = FormatReport(*report);
  EXPECT_NE(table.find("new (no baseline)"), std::string::npos);
}

TEST_F(PerfGateTest, BenchMissingFromCurrentFails) {
  // Lost coverage must not pass silently: a deleted (or renamed) bench
  // would otherwise hide a regression forever.
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000},)"
            R"("BM_Y/1":{"ns_per_iter":500}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->missing, 1);
}

TEST_F(PerfGateTest, MissingCurrentFileIsHardError) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError);
}

TEST_F(PerfGateTest, MalformedCurrentFileIsHardError) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a", "{\"area\":\"a\",");
  auto report = perfgate::Run(Options("a"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfGateTest, WrongAreaFieldIsHardError) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"b","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfGateTest, DefaultThresholdOverrideRespected) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1400}}})");
  GateOptions options = Options("a");
  auto strict = perfgate::Run(options);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->failed);  // +40% > default 25%.

  options.default_threshold = 0.50;
  auto loose = perfgate::Run(options);
  ASSERT_TRUE(loose.ok());
  EXPECT_FALSE(loose->failed);  // +40% < 50%.
}

TEST_F(PerfGateTest, PerBenchThresholdFromBaselineWins) {
  // A known-noisy bench can carry its own limit in the baseline file.
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_noisy/1":{"ns_per_iter":1000},)"
            R"("BM_stable/1":{"ns_per_iter":1000}},)"
            R"("thresholds":{"BM_noisy/1":0.60}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_noisy/1":{"ns_per_iter":1500},)"
            R"("BM_stable/1":{"ns_per_iter":1500}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->regressions, 1);  // Only BM_stable trips its 25%.
  for (const GateRow& row : report->rows) {
    if (row.name == "BM_noisy/1") {
      EXPECT_EQ(row.status, RowStatus::kOk);
      EXPECT_DOUBLE_EQ(row.threshold, 0.60);
    } else {
      EXPECT_EQ(row.status, RowStatus::kRegressed);
    }
  }
}

TEST_F(PerfGateTest, CheckMismatchFailsRegardlessOfTiming) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("checks":{"fired":13333}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("checks":{"fired":13334}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->check_mismatches, 1);
}

TEST_F(PerfGateTest, CheckPresentOnOneSideOnlyFails) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{},"checks":{"fired":1}})");
  WriteArea(current_dir_, "a", R"({"area":"a","benches":{},"checks":{}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->check_mismatches, 1);
}

TEST_F(PerfGateTest, UpdateRewritesBaselineAndPreservesThresholds) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("thresholds":{"BM_X/1":0.60}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":9000}},)"
            R"("checks":{"fired":7}})");
  GateOptions options = Options("a");
  options.update = true;
  auto update = perfgate::Run(options);
  ASSERT_TRUE(update.ok()) << update.status().ToString();

  // The rewritten baseline carries the new numbers, the old thresholds.
  auto parsed = ParseJsonFile(baseline_dir_ + "/BENCH_a.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* bench = parsed->Find("benches")->Find("BM_X/1");
  ASSERT_NE(bench, nullptr);
  EXPECT_DOUBLE_EQ(bench->Find("ns_per_iter")->number_value, 9000);
  EXPECT_DOUBLE_EQ(parsed->Find("checks")->Find("fired")->number_value, 7);
  const JsonValue* threshold = parsed->Find("thresholds")->Find("BM_X/1");
  ASSERT_NE(threshold, nullptr);
  EXPECT_DOUBLE_EQ(threshold->number_value, 0.60);

  // And the fresh run now gates clean against it.
  options.update = false;
  auto compare = perfgate::Run(options);
  ASSERT_TRUE(compare.ok());
  EXPECT_FALSE(compare->failed);
}

TEST_F(PerfGateTest, MissingBaselineFileIsHardErrorByDefault) {
  WriteArea(current_dir_, "fleet",
            R"({"area":"fleet","benches":{"BM_F/1":{"ns_per_iter":1000}}})");
  auto report = perfgate::Run(Options("fleet"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError);
}

TEST_F(PerfGateTest, AllowNewAreaReportsMissingBaselineAsNewRows) {
  // Landing a brand-new bench area (current artifact exists, no baseline
  // committed yet) must be a warning, not a wedge: the gate reports every
  // current value as "new" and keeps gating the other areas.
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "fleet",
            R"({"area":"fleet","benches":{"BM_F/1":{"ns_per_iter":1000},)"
            R"("BM_F/2":{"ns_per_iter":2000}},"max_rss_bytes":1048576})");
  GateOptions options = Options("a");
  options.areas = {"a", "fleet"};
  options.allow_new_area = true;
  auto report = perfgate::Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed);
  EXPECT_EQ(report->new_benches, 3);  // Two benches + the RSS ceiling.
  int fleet_new = 0;
  for (const GateRow& row : report->rows) {
    if (row.area == "fleet") {
      EXPECT_EQ(row.status, RowStatus::kNew);
      ++fleet_new;
    }
  }
  EXPECT_EQ(fleet_new, 3);
}

TEST_F(PerfGateTest, AllowNewAreaDoesNotMaskMalformedBaseline) {
  // The escape hatch is for a baseline that does not exist; one that
  // exists but cannot be parsed is corruption and must stay fatal.
  WriteArea(baseline_dir_, "a", "{\"area\":\"a\",");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  GateOptions options = Options("a");
  options.allow_new_area = true;
  auto report = perfgate::Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfGateTest, AllowNewAreaStillRequiresCurrentArtifact) {
  // A baseline without a current artifact is lost coverage even with the
  // new-area escape hatch on.
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  GateOptions options = Options("a");
  options.allow_new_area = true;
  auto report = perfgate::Run(options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIOError);
}

TEST_F(PerfGateTest, RssWithinGenerousThresholdPasses) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":100000000})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":140000000})");
  auto report = perfgate::Run(Options("a"));  // +40% < default 50%.
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failed);
  ASSERT_EQ(report->rows.size(), 2u);
  EXPECT_EQ(report->rows[1].name, "max_rss_bytes");
  EXPECT_EQ(report->rows[1].status, RowStatus::kOk);
  EXPECT_DOUBLE_EQ(report->rows[1].threshold, 0.5);
}

TEST_F(PerfGateTest, RssBlowupBeyondThresholdFails) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":100000000})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":200000000})");
  auto report = perfgate::Run(Options("a"));  // +100% > 50%.
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->regressions, 1);
  const std::string table = FormatReport(*report);
  EXPECT_NE(table.find("max_rss_bytes"), std::string::npos);
  EXPECT_NE(table.find("REGRESSED"), std::string::npos);
}

TEST_F(PerfGateTest, RssThresholdOverrideFromBaselineWins) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":100000000,)"
            R"("thresholds":{"max_rss_bytes":1.5}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":200000000})");
  auto report = perfgate::Run(Options("a"));  // +100% < override 150%.
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->failed);
}

TEST_F(PerfGateTest, RssOnlyInCurrentIsNewRssOnlyInBaselineIsMissing) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":100000000})");
  auto fresh = perfgate::Run(Options("a"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->failed);  // First recording: informational.
  EXPECT_EQ(fresh->new_benches, 1);

  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":100000000})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  auto lost = perfgate::Run(Options("a"));
  ASSERT_TRUE(lost.ok());
  EXPECT_TRUE(lost->failed);  // Stopped recording: lost coverage.
  EXPECT_EQ(lost->missing, 1);
}

TEST_F(PerfGateTest, UpdateCarriesRssIntoBaseline) {
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("max_rss_bytes":123456768})");
  GateOptions options = Options("a");
  options.update = true;
  ASSERT_TRUE(perfgate::Run(options).ok());
  auto parsed = ParseJsonFile(baseline_dir_ + "/BENCH_a.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* rss = parsed->Find("max_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_DOUBLE_EQ(rss->number_value, 123456768);
  options.update = false;
  auto compare = perfgate::Run(options);
  ASSERT_TRUE(compare.ok());
  EXPECT_FALSE(compare->failed);
}

TEST_F(PerfGateTest, UpdateIntoEmptyBaselineDirBootstraps) {
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("checks":{"fired":7}})");
  GateOptions options = Options("a");
  options.update = true;
  ASSERT_TRUE(perfgate::Run(options).ok());
  options.update = false;
  auto compare = perfgate::Run(options);
  ASSERT_TRUE(compare.ok());
  EXPECT_FALSE(compare->failed);
}

// A fleet area gating how completions/s scale from 1k to 100k peers.
// `ratio_percent` sets the 100k world's rate relative to the 1k world's
// 250000/s; the baseline floors that ratio at 5%.
std::string FleetScalingArea(double ratio_percent) {
  return StrFormat(
      R"({"area":"fleet_100k","benches":{)"
      R"("BM_Fleet/1000":{"counters":{"flow_completions/s":250000},)"
      R"("ns_per_iter":1000000},)"
      R"("BM_Fleet/100000":{"counters":{"flow_completions/s":%.17g},)"
      R"("ns_per_iter":900000000}}})",
      2500.0 * ratio_percent);
}

/// `area` with the 5% completions/s floor of 100k over 1k peers added.
std::string WithFleetFloor(std::string area) {
  area.insert(area.size() - 1,
              R"(,"floors":[{"counter":"flow_completions/s",)"
              R"("denominator":"BM_Fleet/1000","min":0.05,)"
              R"("numerator":"BM_Fleet/100000"}])");
  return area;
}

TEST_F(PerfGateTest, ScalingFloorHoldsAboveMinimum) {
  WriteArea(baseline_dir_, "fleet_100k",
            WithFleetFloor(FleetScalingArea(17.7)));
  WriteArea(current_dir_, "fleet_100k", FleetScalingArea(17.7));
  auto report = perfgate::Run(Options("fleet_100k"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->failed) << perfgate::FormatReport(*report);
  EXPECT_EQ(report->below_floor, 0);
  bool saw_floor = false;
  for (const GateRow& row : report->rows) {
    if (row.status != RowStatus::kFloorOk) continue;
    saw_floor = true;
    EXPECT_NEAR(row.current, 0.177, 1e-12);
    EXPECT_DOUBLE_EQ(row.baseline, 0.05);
  }
  EXPECT_TRUE(saw_floor);
}

TEST_F(PerfGateTest, ScalingFloorTripsBelowMinimum) {
  // 1.4%: the 100k world's rate before lazy flow settlement. Both
  // timings are unchanged from the baseline, so only the floor can fail.
  WriteArea(baseline_dir_, "fleet_100k",
            WithFleetFloor(FleetScalingArea(1.4)));
  WriteArea(current_dir_, "fleet_100k", FleetScalingArea(1.4));
  auto report = perfgate::Run(Options("fleet_100k"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->regressions, 0);
  EXPECT_EQ(report->below_floor, 1);
  EXPECT_NE(perfgate::FormatReport(*report).find("BELOW FLOOR"),
            std::string::npos);
}

TEST_F(PerfGateTest, ScalingFloorWithoutCountersFails) {
  // A run that stopped reporting the counter cannot prove the floor.
  WriteArea(baseline_dir_, "fleet_100k",
            WithFleetFloor(FleetScalingArea(17.7)));
  WriteArea(current_dir_, "fleet_100k",
            R"({"area":"fleet_100k","benches":{)"
            R"("BM_Fleet/1000":{"ns_per_iter":1000000},)"
            R"("BM_Fleet/100000":{"ns_per_iter":900000000}}})");
  auto report = perfgate::Run(Options("fleet_100k"));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->failed);
  EXPECT_EQ(report->below_floor, 1);
}

TEST_F(PerfGateTest, MalformedFloorIsHardError) {
  WriteArea(baseline_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}},)"
            R"("floors":[{"counter":"c","numerator":"BM_X/1","min":0.5}]})");
  WriteArea(current_dir_, "a",
            R"({"area":"a","benches":{"BM_X/1":{"ns_per_iter":1000}}})");
  auto report = perfgate::Run(Options("a"));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PerfGateTest, UpdatePreservesFloorsAndCarriesCounters) {
  WriteArea(baseline_dir_, "fleet_100k",
            WithFleetFloor(FleetScalingArea(17.7)));
  WriteArea(current_dir_, "fleet_100k", FleetScalingArea(20.0));
  GateOptions options = Options("fleet_100k");
  options.update = true;
  ASSERT_TRUE(perfgate::Run(options).ok());
  auto parsed = ParseJsonFile(baseline_dir_ + "/BENCH_fleet_100k.json");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* floors = parsed->Find("floors");
  ASSERT_NE(floors, nullptr);
  ASSERT_EQ(floors->array.size(), 1u);
  EXPECT_DOUBLE_EQ(floors->array[0].Find("min")->number_value, 0.05);
  const JsonValue* counter = parsed->Find("benches")
                                 ->Find("BM_Fleet/100000")
                                 ->Find("counters")
                                 ->Find("flow_completions/s");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->number_value, 50000);
  options.update = false;
  auto compare = perfgate::Run(options);
  ASSERT_TRUE(compare.ok());
  EXPECT_FALSE(compare->failed);
}

}  // namespace
}  // namespace hivesim::perfgate

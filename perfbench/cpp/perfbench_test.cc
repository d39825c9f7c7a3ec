// Tests of the benchmark itself: its metric catalogue, its correctness
// checks (a perturbed reference must fail them), its seeding, and the span
// trees of its traced run. Run with `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "checks.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "fuzz/fuzz.h"
#include "metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

const std::string kDataDir = PERFBENCH_DATA_DIR;
const std::string kBenchmarkJson = PERFBENCH_BENCHMARK_JSON;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A copy of perfbench/data under the build tree, with the first `from` in
/// file `name` replaced by `to`.
std::string PerturbedDataDir(const std::string& name,
                             const std::string& from, const std::string& to) {
  const fs::path dir = fs::path(PERFBENCH_SCRATCH_DIR) / "perturbed_data";
  fs::remove_all(dir);
  fs::copy(kDataDir, dir);
  std::string text = ReadFile((dir / name).string());
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  std::ofstream((dir / name).string()) << text;
  return dir.string();
}

bool Mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
  for (const std::string& problem : problems) {
    if (problem.find(needle) != std::string::npos) return true;
  }
  return false;
}

// --- Metric catalogue -----------------------------------------------------

const Catalogue& TheCatalogue() {
  static const Catalogue catalogue = [] {
    auto loaded = LoadCatalogue(kBenchmarkJson);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? *loaded : Catalogue();
  }();
  return catalogue;
}

TEST(MetricCatalogue, NamesAndUnitsAreValidAndUnique) {
  const Catalogue& catalogue = TheCatalogue();
  EXPECT_FALSE(catalogue.end_to_end.empty());
  EXPECT_FALSE(catalogue.per_layer.empty());
  std::set<std::string> names;
  for (const auto* list : {&catalogue.end_to_end, &catalogue.per_layer}) {
    for (const MetricSpec& spec : *list) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(ValidUnit(spec.unit)) << spec.name << " " << spec.unit;
      EXPECT_NE(spec.measured_on & kAllWorkloads, 0u) << spec.name;
      EXPECT_TRUE(names.insert(spec.name).second) << "duplicate " << spec.name;
    }
  }
  for (const MetricSpec& spec : catalogue.end_to_end) {
    EXPECT_EQ(spec.measured_on, kAllWorkloads) << spec.name;
  }
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidUnit("much_too_long_a_unit"));
}

TEST(MetricCatalogue, RefusesAMetricTheProgramDoesNotMeasure) {
  const fs::path path = fs::path(PERFBENCH_SCRATCH_DIR) / "catalogue.json";
  const auto load = [&](const std::string& text) {
    std::ofstream(path.string()) << text;
    return LoadCatalogue(path.string());
  };
  EXPECT_TRUE(load(R"({"end_to_end": [{"name": "setup_s", "unit": "s"}],
                       "per_layer": [{"name": "fuzz.cases", "unit": "count"}]})")
                  .ok());
  const auto unknown = load(R"({"end_to_end": [], "per_layer": [
                                {"name": "made.up", "unit": "s"}]})");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("made.up"), std::string::npos);
  EXPECT_FALSE(load(R"({"end_to_end": [{"name": "setup_s", "unit": "s e c"}],
                        "per_layer": []})")
                   .ok());
  EXPECT_FALSE(load(R"({"per_layer": []})").ok());
}

TEST(MetricCatalogue, AssembleFillsUnmeasuredAndFlagsMissing) {
  const std::vector<MetricSpec>& per_layer = TheCatalogue().per_layer;
  std::map<std::string, double> values = {{"sim.events_fired", 7}};
  std::vector<std::pair<const MetricSpec*, double>> out;
  std::vector<std::string> unmeasured;
  const std::vector<std::string> problems =
      AssembleMetrics(per_layer, kFleetChurn, values, &out, &unmeasured);
  EXPECT_EQ(out.size(), per_layer.size());
  EXPECT_TRUE(Mentions(problems, "net.start_flow_us_p50 missing"));
  EXPECT_FALSE(Mentions(problems, "sim.events_fired"));
  EXPECT_NE(std::find(unmeasured.begin(), unmeasured.end(), "fuzz.cases"),
            unmeasured.end());

  values = {{"fuzz.cases", 1}};  // Not measured on paper_grid.
  out.clear();
  unmeasured.clear();
  EXPECT_TRUE(Mentions(
      AssembleMetrics(per_layer, kPaperGrid, values, &out, &unmeasured),
      "uncatalogued metric fuzz.cases"));
}

TEST(MetricCatalogue, PercentileInterpolates) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 0.9), 9.0);
}

// --- Correctness checks ---------------------------------------------------

TEST(Checks, PerturbedHeadlineFailsTheGridRun) {
  RunOptions options;
  options.workload = kPaperGrid;
  options.seed = 1;
  options.seconds = 1;
  options.data_dir = kDataDir;
  const Report clean = RunWorkload(options);
  EXPECT_TRUE(clean.problems.empty()) << clean.problems.front();
  EXPECT_EQ(clean.failed, 0);

  // Raise A-8 CONV's reference SPS by ~2%, beyond the 0.5% tolerance.
  const std::string table = ReadFile(kDataDir + "/grid_headlines.tsv");
  const size_t row = table.find("A-8\tCONV\t32768\t");
  ASSERT_NE(row, std::string::npos);
  const size_t sps_at = row + std::string("A-8\tCONV\t32768\t").size();
  const std::string sps = table.substr(sps_at, table.find('\t', sps_at) - sps_at);
  options.data_dir = PerturbedDataDir(
      "grid_headlines.tsv", "A-8\tCONV\t32768\t" + sps + "\t",
      "A-8\tCONV\t32768\t" + std::to_string(std::stod(sps) * 1.02) + "\t");
  const Report perturbed = RunWorkload(options);
  EXPECT_TRUE(Mentions(perturbed.problems, "headline A-8/CONV/32768"));
  fs::remove_all(options.data_dir);
}

TEST(Checks, PerturbedDigestFailsTheCampaign) {
  auto committed = LoadFuzzDigest(kDataDir + "/fuzz_digests.tsv", 1, kFuzzCases);
  ASSERT_TRUE(committed.ok());
  ASSERT_NE(*committed, 0u);
  const uint64_t digest = CampaignDigest(1, kFuzzCases);
  EXPECT_TRUE(CheckFuzz(0, digest, *committed).empty());
  EXPECT_FALSE(CheckFuzz(0, digest, *committed ^ 1).empty());
  EXPECT_FALSE(CheckFuzz(1, digest, *committed).empty());
  EXPECT_TRUE(CheckFuzz(0, digest, 0).empty());  // No reference: no compare.
}

TEST(Checks, DigestFoldEqualsRunCampaigns) {
  hivesim::fuzz::FuzzOptions options;
  options.seed = 7;
  options.runs = 6;
  auto campaign = hivesim::fuzz::RunCampaign(options);
  ASSERT_TRUE(campaign.ok());
  ASSERT_EQ(campaign->failures, 0);
  EXPECT_EQ(CampaignDigest(7, 6), campaign->digest);
}

TEST(Checks, CostIdentityCatchesAMispricedFleet) {
  const hivesim::core::NamedExperiment fleet = hivesim::core::BSeries()[0];
  hivesim::core::ExperimentConfig config;
  auto result = hivesim::core::RunHivemindExperiment(fleet.cluster, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CheckCostIdentity("B-2", *result).empty());
  hivesim::core::ExperimentResult mispriced = *result;
  mispriced.fleet_cost.external_egress += 0.01;
  EXPECT_FALSE(CheckCostIdentity("B-2", mispriced).empty());
  mispriced = *result;
  mispriced.fleet_cost_per_hour *= 1.001;
  EXPECT_FALSE(CheckCostIdentity("B-2", mispriced).empty());
}

std::vector<GridCellResult> SyntheticGrid() {
  std::vector<GridCellResult> cells;
  auto add = [&](const char* fleet, const char* model, double sps,
                 double granularity) {
    GridCellResult cell;
    cell.fleet = fleet;
    cell.model = model;
    cell.tbs = kPaperTbs;
    cell.ok = true;
    cell.sps = sps;
    cell.granularity = granularity;
    cell.cost_per_million = 1.0;
    cells.push_back(cell);
  };
  add("A-1", "CONV", 40, 0);
  add("A-3", "CONV", 120, 6);
  add("A-8", "CONV", 260, 5);
  add("C-3", "CONV", 114, 4);
  add("C-8", "CONV", 240, 3.33);
  return cells;
}

TEST(Checks, OrderingsHoldAndBreak) {
  std::vector<GridCellResult> cells = SyntheticGrid();
  EXPECT_TRUE(CheckOrderings(cells).empty());
  cells[3].sps = 121;  // C-3 faster than A-3.
  EXPECT_TRUE(Mentions(CheckOrderings(cells), "C-3 < A-3"));
  cells.pop_back();  // C-8 gone.
  EXPECT_TRUE(Mentions(CheckOrderings(cells), "cell missing"));
}

TEST(Checks, PaperErrorFollowsTheTable) {
  const std::vector<GridCellResult> cells = SyntheticGrid();
  PaperRow sps{"a8", "sps", "A-8", "CONV", 200, 0, "-", ""};
  PaperRow ratio{"c3", "ratio", "C-3", "CONV", 0.95, 0, "A-3", ""};
  PaperRow speedup{"c8", "speedup", "C-8", "CONV", 3.0, 80, "-", ""};
  PaperRow gran{"g", "granularity", "C-8", "CONV", 3.33, 0, "-", ""};
  // |260-200|/200 = 30%, |0.95-0.95| = 0, |3-3| = 0, 0.
  auto err = PaperErrorPct(cells, {sps, ratio, speedup, gran});
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(*err, 7.5, 1e-9);
  PaperRow missing{"x", "sps", "Z-9", "CONV", 1, 0, "-", ""};
  EXPECT_FALSE(PaperErrorPct(cells, {missing}).ok());

  auto table = LoadPaperTable(kDataDir + "/paper_figs7_9.tsv");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->size(), 13u);
  for (const PaperRow& row : *table) EXPECT_FALSE(row.cite.empty()) << row.id;
}

TEST(Checks, ConservationCatchesLostBytesAndFlows) {
  ChurnTotals totals;
  totals.egress_bytes = totals.ingress_bytes = totals.site_pair_bytes = 100;
  totals.completed_bytes = 90;
  totals.started_bytes = 120;
  totals.starts = 10;
  totals.completions = 8;
  totals.cancels = 2;
  EXPECT_TRUE(CheckConservation(totals).empty());
  ChurnTotals lost = totals;
  lost.ingress_bytes = 99;
  EXPECT_TRUE(Mentions(CheckConservation(lost), "not conserved"));
  lost = totals;
  lost.completed_bytes = 101;
  EXPECT_TRUE(Mentions(CheckConservation(lost), "outside"));
  lost = totals;
  lost.cancels = 1;
  EXPECT_TRUE(Mentions(CheckConservation(lost), "starts 10"));
  lost = totals;
  lost.active_after_drain = 1;
  EXPECT_TRUE(Mentions(CheckConservation(lost), "still active"));
}

// --- Seeds ----------------------------------------------------------------

TEST(Seeds, DifferentSeedChangesInputsButNotMetricSet) {
  for (const Workload w : {kPaperGrid, kFleetChurn, kFuzzCampaign}) {
    EXPECT_EQ(InputsDigest(w, 3), InputsDigest(w, 3)) << WorkloadName(w);
    EXPECT_NE(InputsDigest(w, 3), InputsDigest(w, 4)) << WorkloadName(w);
  }
  std::set<std::string> metric_sets;
  for (const uint64_t seed : {3, 4}) {
    RunOptions options;
    options.workload = kPaperGrid;
    options.seed = seed;
    options.seconds = 1;
    options.data_dir = kDataDir;
    const Report report = RunWorkload(options);
    EXPECT_TRUE(report.problems.empty()) << report.problems.front();
    std::vector<std::pair<const MetricSpec*, double>> out;
    std::vector<std::string> unmeasured;
    EXPECT_TRUE(AssembleMetrics(TheCatalogue().end_to_end, kPaperGrid,
                                report.end_to_end, &out, &unmeasured)
                    .empty());
    std::string names;
    for (const auto& [name, value] : report.end_to_end) {
      names += name + ",";
      EXPECT_GT(value, 0) << name;
    }
    metric_sets.insert(names);
  }
  EXPECT_EQ(metric_sets.size(), 1u);
}

// --- Spans ----------------------------------------------------------------

TEST(Spans, SelfTimesSumToTheRootAndChildrenStayInside) {
  SpanRecorder recorder;
  const int root = recorder.Begin("workload", 0.0);
  const int rep = recorder.Begin("rep", 1.0);
  recorder.End(recorder.Begin("core.build", 1.5), 2.0);
  recorder.End(recorder.Begin("core.complete", 2.0), 4.0);
  recorder.End(rep, 5.0);
  recorder.End(root, 6.0);
  const std::vector<Span>& spans = recorder.spans();
  EXPECT_EQ(CheckSpanTree(spans), "");
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);  // 6 s minus the 4 s rep.
  EXPECT_DOUBLE_EQ(self[1], 1.5);  // 4 s minus 0.5 s + 2 s.
  double sum = 0;
  for (const double s : self) sum += s;
  EXPECT_DOUBLE_EQ(sum, 6.0);
  EXPECT_EQ(spans[2].parent, rep);
  EXPECT_EQ(spans[3].parent, rep);

  std::vector<Span> broken = spans;
  broken[2].end = 5.5;  // core.build now outlives its rep.
  EXPECT_NE(CheckSpanTree(broken).find("outside its parent"),
            std::string::npos);
  broken = spans;
  broken[3].start = 0.5;  // Overlaps its sibling and leaves the rep.
  EXPECT_NE(CheckSpanTree(broken), "");
}

TEST(Spans, ClosingAnOuterSpanClosesInnerOnes) {
  SpanRecorder recorder;
  const int outer = recorder.Begin("outer", 0.0);
  recorder.Begin("inner", 1.0);
  recorder.End(outer, 2.0);
  EXPECT_EQ(recorder.spans()[1].end, 2.0);
  EXPECT_EQ(CheckSpanTree(recorder.spans()), "");
}

TEST(Spans, TracedRunTreeIsWellFormed) {
  RunOptions options;
  options.workload = kFuzzCampaign;
  options.seed = 5;
  options.seconds = 1;
  options.trace = true;
  options.data_dir = kDataDir;
  const Report report = RunWorkload(options);
  EXPECT_TRUE(report.problems.empty()) << report.problems.front();
  ASSERT_FALSE(report.spans.empty());
  EXPECT_EQ(CheckSpanTree(report.spans), "");
  const std::vector<double> self = SelfTimes(report.spans);
  double sum = 0;
  for (const double s : self) sum += s;
  const Span& root = report.spans.front();
  EXPECT_NEAR(sum, root.end - root.start, 1e-9 * (root.end - root.start));
  EXPECT_EQ(std::count_if(report.spans.begin(), report.spans.end(),
                          [](const Span& span) { return span.parent < 0; }),
            1);  // One tree.

  std::vector<std::pair<const MetricSpec*, double>> out;
  std::vector<std::string> unmeasured;
  EXPECT_TRUE(AssembleMetrics(TheCatalogue().per_layer, kFuzzCampaign,
                              report.per_layer, &out, &unmeasured)
                  .empty());
  EXPECT_EQ(report.per_layer.at("fuzz.generate.calls"), kFuzzCases);
}

}  // namespace
}  // namespace perfbench

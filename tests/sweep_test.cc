// The sweep engine's contract: (1) a SweepSpec expands into a stable,
// documented cell order; (2) running the grid on N threads produces
// byte-identical aggregated reports AND byte-identical per-run trace/
// metrics files to running it on 1 thread — including cells with chaos
// schedules armed; (3) the aggregator's renderings are invariant under
// any permutation of completion order. (2) is the determinism oracle
// that lets every future perf PR parallelize fearlessly.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/units.h"
#include "core/sweep.h"
#include "core/sweep_runner.h"
#include "scenario/scenario.h"
#include "telemetry/telemetry.h"

namespace hivesim::core {
namespace {

const ChaosAxisEntry kNoChaos{"none", std::nullopt};

ChaosAxisEntry BuiltinEntry(const std::string& name) {
  auto pack = scenario::BuiltinScenario(name);
  EXPECT_TRUE(pack.ok()) << pack.status().ToString();
  return {name, pack.ok() ? std::optional(*pack) : std::nullopt};
}

SweepSpec SmallGrid() {
  SweepSpec spec;
  spec.title = "oracle grid";
  spec.clusters = {NamedExperiment{"2xA10", {{LambdaA10s(2)}}},
                   NamedExperiment{"US+EU", {{GcT4s(2, net::kGcUs),
                                              GcT4s(2, net::kGcEu)}}}};
  spec.models = {models::ModelId::kConvNextLarge};
  spec.target_batch_sizes = {8192, 32768};
  spec.seeds = {1, 7};
  spec.chaos = {kNoChaos, BuiltinEntry("partition"), BuiltinEntry("churn")};
  spec.duration_sec = 0.5 * kHour;
  return spec;
}

// --- Expansion ---

TEST(SweepSpecTest, ExpansionOrderAndNaming) {
  SweepSpec spec = SmallGrid();
  const std::vector<SweepCell> cells = ExpandSweep(spec);
  ASSERT_EQ(cells.size(), spec.NumCells());
  ASSERT_EQ(cells.size(), 2u * 1 * 2 * 2 * 3);
  // Chaos is the innermost axis, clusters the outermost.
  EXPECT_EQ(cells[0].name, "2xA10/CONV/tbs8192/seed1");
  EXPECT_EQ(cells[1].name, "2xA10/CONV/tbs8192/seed1/partition");
  EXPECT_EQ(cells[2].name, "2xA10/CONV/tbs8192/seed1/churn");
  EXPECT_EQ(cells[3].name, "2xA10/CONV/tbs8192/seed7");
  EXPECT_EQ(cells.back().name, "US+EU/CONV/tbs32768/seed7/churn");
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
  }
  // Slugs are filesystem-safe and unique.
  std::vector<std::string> slugs;
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.slug.find('/'), std::string::npos) << cell.slug;
    slugs.push_back(cell.slug);
  }
  std::sort(slugs.begin(), slugs.end());
  EXPECT_EQ(std::unique(slugs.begin(), slugs.end()), slugs.end());
}

TEST(SweepSpecTest, ValidateRejectsBadSpecs) {
  SweepSpec empty;
  empty.clusters.clear();
  EXPECT_FALSE(empty.Validate().ok());

  SweepSpec dup = SmallGrid();
  dup.seeds = {1, 1};
  EXPECT_FALSE(dup.Validate().ok());

  SweepSpec dup_tbs = SmallGrid();
  dup_tbs.target_batch_sizes = {8192, 8192};
  EXPECT_FALSE(dup_tbs.Validate().ok());

  SweepSpec bad_tbs = SmallGrid();
  bad_tbs.target_batch_sizes = {0};
  EXPECT_FALSE(bad_tbs.Validate().ok());

  SweepSpec no_axis = SmallGrid();
  no_axis.chaos.clear();
  EXPECT_FALSE(no_axis.Validate().ok());

  EXPECT_TRUE(SmallGrid().Validate().ok());
}

// Chaos labels name cells: they must be unique and non-empty, "none"
// means exactly "no pack", and a builtin name means exactly that pack.
TEST(SweepSpecTest, ScenarioAxisLabelsAreValidatedAndNameCells) {
  SweepSpec ok = SmallGrid();
  ok.chaos = {kNoChaos, BuiltinEntry("zone-diurnal")};
  ASSERT_TRUE(ok.Validate().ok());
  const std::vector<SweepCell> cells = ExpandSweep(ok);
  ASSERT_FALSE(cells.empty());
  // Chaos cells are suffixed with their label, in axis order.
  EXPECT_EQ(cells[0].name, "2xA10/CONV/tbs8192/seed1");
  EXPECT_EQ(cells[1].name, "2xA10/CONV/tbs8192/seed1/zone-diurnal");

  // A zone-diurnal pack labelled as another builtin is not that builtin.
  SweepSpec collides = ok;
  collides.chaos[1].label = "partition";
  EXPECT_FALSE(collides.Validate().ok());

  // A custom label is free to carry any pack.
  SweepSpec custom = ok;
  custom.chaos[1].label = "my-diurnal";
  EXPECT_TRUE(custom.Validate().ok());

  SweepSpec unlabeled = ok;
  unlabeled.chaos[1].label.clear();
  EXPECT_FALSE(unlabeled.Validate().ok());

  SweepSpec dup = ok;
  dup.chaos.push_back(dup.chaos[1]);
  EXPECT_FALSE(dup.Validate().ok());

  SweepSpec none_with_pack = ok;
  none_with_pack.chaos[1].label = "none";
  none_with_pack.chaos.erase(none_with_pack.chaos.begin());
  EXPECT_FALSE(none_with_pack.Validate().ok());

  SweepSpec label_without_pack = ok;
  label_without_pack.chaos[1].pack.reset();
  EXPECT_FALSE(label_without_pack.Validate().ok());
}

// --- The determinism oracle: serial == parallel, byte for byte ---

TEST(SweepDeterminismTest, SerialAndParallelRunsAreByteIdentical) {
  const SweepSpec spec = SmallGrid();

  SweepOptions serial;
  serial.threads = 1;
  serial.per_run_telemetry = true;
  auto one = RunSweep(spec, serial);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  SweepOptions parallel;
  parallel.threads = 4;
  parallel.per_run_telemetry = true;
  auto many = RunSweep(spec, parallel);
  ASSERT_TRUE(many.ok()) << many.status().ToString();

  // Every cell trained (chaos cells degrade, they don't fail).
  EXPECT_EQ(one->failures, 0);
  EXPECT_EQ(many->failures, 0);

  // Aggregated renderings.
  EXPECT_EQ(one->report_json, many->report_json);
  EXPECT_EQ(one->report_csv, many->report_csv);
  EXPECT_EQ(one->manifest_json, many->manifest_json);
  EXPECT_EQ(one->merged_metrics_json, many->merged_metrics_json);

  // Per-cell results and per-run telemetry, cell by cell.
  ASSERT_EQ(one->outcomes.size(), many->outcomes.size());
  for (size_t i = 0; i < one->outcomes.size(); ++i) {
    const SweepCellOutcome& a = one->outcomes[i];
    const SweepCellOutcome& b = many->outcomes[i];
    SCOPED_TRACE(one->cells[i].name);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_DOUBLE_EQ(a.result.train.throughput_sps,
                     b.result.train.throughput_sps);
    EXPECT_EQ(a.result.chaos_fingerprint, b.result.chaos_fingerprint);
    EXPECT_EQ(a.trace_json, b.trace_json);
    EXPECT_EQ(a.metrics_json, b.metrics_json);
    EXPECT_FALSE(a.trace_json.empty());
  }

  // Chaos cells actually injected faults (the oracle would be vacuous
  // against an empty schedule).
  bool saw_chaos = false;
  for (size_t i = 0; i < one->cells.size(); ++i) {
    if (one->cells[i].chaos.pack) {
      EXPECT_NE(one->outcomes[i].result.chaos_fingerprint, 0u)
          << one->cells[i].name;
      saw_chaos = true;
    }
  }
  EXPECT_TRUE(saw_chaos);
}

TEST(SweepDeterminismTest, OutputTreesAreByteIdentical) {
  namespace fs = std::filesystem;
  SweepSpec spec = SmallGrid();
  // A leaner grid keeps the I/O comparison fast; the in-memory oracle
  // above already covers the full one.
  spec.clusters.resize(1);
  spec.seeds = {1};

  const fs::path root =
      fs::temp_directory_path() / "hivesim_sweep_oracle";
  fs::remove_all(root);
  SweepOptions serial;
  serial.threads = 1;
  serial.per_run_telemetry = true;
  serial.out_dir = (root / "t1").string();
  SweepOptions parallel;
  parallel.threads = 4;
  parallel.per_run_telemetry = true;
  parallel.out_dir = (root / "t4").string();

  ASSERT_TRUE(RunSweep(spec, serial).ok());
  ASSERT_TRUE(RunSweep(spec, parallel).ok());

  // Same file set, same bytes.
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root / "t1")) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), root / "t1"));
    }
  }
  EXPECT_GT(files.size(), 4u);  // 4 aggregate files + per-run telemetry.
  for (const fs::path& rel : files) {
    SCOPED_TRACE(rel.string());
    std::ifstream a(root / "t1" / rel, std::ios::binary);
    std::ifstream b(root / "t4" / rel, std::ios::binary);
    ASSERT_TRUE(a.good());
    ASSERT_TRUE(b.good());
    const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                              std::istreambuf_iterator<char>());
    const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
  }
  fs::remove_all(root);
}

// A globally enabled process must not make concurrent cells race on the
// shared recorder: the runner snapshots the switch and captures into
// private per-cell sinks, leaving the global sinks untouched.
TEST(SweepDeterminismTest, GloballyEnabledTelemetryStaysRaceFreeAndClean) {
  telemetry::Telemetry::Enable();
  SweepSpec spec = SmallGrid();
  spec.clusters.resize(1);
  spec.seeds = {1};
  spec.chaos = {kNoChaos};
  SweepOptions options;
  options.threads = 4;
  auto summary = RunSweep(spec, options);
  telemetry::Telemetry::Disable();
  ASSERT_TRUE(summary.ok());
  // All recording went to the per-cell sinks.
  EXPECT_EQ(telemetry::Telemetry::trace().size(), 0u);
  for (const SweepCellOutcome& outcome : summary->outcomes) {
    EXPECT_GT(outcome.metrics.CounterValue("sim.events_fired"), 0);
  }
}

// --- Aggregator permutation invariance (property test) ---

SweepCellOutcome FakeOutcome(size_t i) {
  SweepCellOutcome outcome;
  outcome.ok = (i % 5) != 3;  // A sprinkling of failures.
  outcome.error = outcome.ok ? "" : "INTERNAL: synthetic failure";
  outcome.result.train.throughput_sps = 100.0 + static_cast<double>(i);
  outcome.result.train.epochs = static_cast<int>(i);
  outcome.result.cost_per_million = 2.0 + 0.01 * static_cast<double>(i);
  outcome.result.chaos_fingerprint = 0x9e3779b97f4a7c15ULL * (i + 1);
  outcome.metrics.Count("cells", 1);
  outcome.metrics.Count("samples", 1000.0 * static_cast<double>(i + 1));
  outcome.metrics.SetGauge("peak", static_cast<double>((i * 37) % 11));
  for (size_t k = 0; k <= i % 4; ++k) {
    outcome.metrics.Observe("round_sec",
                            static_cast<double>((i * 13 + k * 7) % 90));
  }
  return outcome;
}

TEST(SweepAggregatorTest, RenderingsArePermutationInvariant) {
  SweepSpec spec = SmallGrid();
  const std::vector<SweepCell> cells = ExpandSweep(spec);

  // Reference: insertion in cell order.
  SweepAggregator reference(spec, cells);
  for (size_t i = 0; i < cells.size(); ++i) {
    reference.Add(i, FakeOutcome(i));
  }
  ASSERT_TRUE(reference.complete());
  const std::string report_json = reference.ReportJson();
  const std::string report_csv = reference.ReportCsv();
  const std::string manifest = reference.ManifestJson();
  const std::string merged = reference.MergedMetricsJson();
  const int failures = reference.failures();
  EXPECT_GT(failures, 0);  // The synthetic failures are in the output.

  std::vector<size_t> order(cells.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937 shuffle_rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    if (trial == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      std::shuffle(order.begin(), order.end(), shuffle_rng);
    }
    SweepAggregator shuffled(spec, cells);
    EXPECT_FALSE(shuffled.complete());
    for (const size_t i : order) shuffled.Add(i, FakeOutcome(i));
    ASSERT_TRUE(shuffled.complete());
    EXPECT_EQ(shuffled.ReportJson(), report_json);
    EXPECT_EQ(shuffled.ReportCsv(), report_csv);
    EXPECT_EQ(shuffled.ManifestJson(), manifest);
    EXPECT_EQ(shuffled.MergedMetricsJson(), merged);
    EXPECT_EQ(shuffled.failures(), failures);
  }
}

TEST(SweepAggregatorTest, ConcurrentAddsFromManyThreads) {
  SweepSpec spec = SmallGrid();
  const std::vector<SweepCell> cells = ExpandSweep(spec);
  SweepAggregator reference(spec, cells);
  for (size_t i = 0; i < cells.size(); ++i) reference.Add(i, FakeOutcome(i));

  SweepAggregator concurrent(spec, cells);
  {
    ThreadPool pool(8);
    for (size_t i = 0; i < cells.size(); ++i) {
      pool.Submit([&concurrent, i] { concurrent.Add(i, FakeOutcome(i)); });
    }
    pool.Wait();
  }
  ASSERT_TRUE(concurrent.complete());
  EXPECT_EQ(concurrent.ManifestJson(), reference.ManifestJson());
  EXPECT_EQ(concurrent.MergedMetricsJson(), reference.MergedMetricsJson());
}

TEST(SweepAggregatorTest, DuplicateAndOutOfRangeAddsAreIgnored) {
  SweepSpec spec = SmallGrid();
  spec.clusters.resize(1);
  spec.seeds = {1};
  spec.chaos = {kNoChaos};
  const std::vector<SweepCell> cells = ExpandSweep(spec);
  SweepAggregator aggregator(spec, cells);
  SweepCellOutcome first = FakeOutcome(0);
  first.result.train.throughput_sps = 111;
  aggregator.Add(0, first);
  SweepCellOutcome second = FakeOutcome(0);
  second.result.train.throughput_sps = 222;
  aggregator.Add(0, second);               // Duplicate: dropped.
  aggregator.Add(cells.size() + 5, {});    // Out of range: dropped.
  EXPECT_EQ(aggregator.added(), 1u);
  EXPECT_DOUBLE_EQ(aggregator.outcome(0).result.train.throughput_sps, 111);
}

// --- ThreadPool basics (the engine under the engine) ---

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1000);
  // The pool is reusable after Wait().
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 1010);
}

TEST(ThreadPoolTest, DestructorDrainsTheQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // No Wait(): the destructor must still run everything.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
}

}  // namespace
}  // namespace hivesim::core

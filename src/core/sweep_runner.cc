#include "core/sweep_runner.h"

#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "common/host_clock.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "telemetry/telemetry.h"

namespace hivesim::core {

namespace {

/// Runs one cell start to finish inside the calling (worker) thread.
/// Everything mutable lives on this thread: the experiment world (with
/// its chaos injector) and — when capturing — the telemetry sinks
/// installed via ScopedSinks.
SweepCellOutcome RunCell(const SweepCell& cell, bool capture_telemetry) {
  SweepCellOutcome outcome;
  telemetry::TraceRecorder trace;
  std::optional<telemetry::Telemetry::ScopedSinks> sinks;
  if (capture_telemetry) sinks.emplace(&trace, &outcome.metrics);

  auto result = RunHivemindExperiment(
      cell.cluster.cluster, cell.config,
      cell.chaos.pack ? &*cell.chaos.pack : nullptr);
  if (!result.ok()) {
    outcome.error = result.status().ToString();
    return outcome;
  }
  outcome.ok = true;
  outcome.result = std::move(*result);
  if (capture_telemetry) {
    outcome.trace_json = trace.ToChromeJson();
    outcome.metrics_json = outcome.metrics.ToJson();
  }
  return outcome;
}

Status WriteFileOrError(const std::filesystem::path& path,
                        const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (out) out << content;
  if (!out) {
    return Status::IOError(StrCat("cannot write ", path.string()));
  }
  return Status::OK();
}

Status WriteOutputs(const SweepOptions& options, SweepRunSummary& summary) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root(options.out_dir);
  fs::create_directories(root, ec);
  if (ec) {
    return Status::IOError(
        StrCat("cannot create ", options.out_dir, ": ", ec.message()));
  }
  HIVESIM_RETURN_IF_ERROR(
      WriteFileOrError(root / "report.json", summary.report_json + "\n"));
  HIVESIM_RETURN_IF_ERROR(
      WriteFileOrError(root / "report.csv", summary.report_csv));
  HIVESIM_RETURN_IF_ERROR(
      WriteFileOrError(root / "manifest.json", summary.manifest_json + "\n"));
  HIVESIM_RETURN_IF_ERROR(WriteFileOrError(
      root / "metrics_merged.json", summary.merged_metrics_json + "\n"));
  if (options.per_run_telemetry) {
    const fs::path runs = root / "runs";
    fs::create_directories(runs, ec);
    if (ec) {
      return Status::IOError(
          StrCat("cannot create ", runs.string(), ": ", ec.message()));
    }
    for (size_t i = 0; i < summary.cells.size(); ++i) {
      const SweepCellOutcome& outcome = summary.outcomes[i];
      if (!outcome.ok) continue;
      const std::string& slug = summary.cells[i].slug;
      HIVESIM_RETURN_IF_ERROR(WriteFileOrError(
          runs / (slug + ".trace.json"), outcome.trace_json));
      HIVESIM_RETURN_IF_ERROR(WriteFileOrError(
          runs / (slug + ".metrics.json"), outcome.metrics_json + "\n"));
    }
  }
  return Status::OK();
}

}  // namespace

Result<SweepRunSummary> RunSweep(const SweepSpec& spec,
                                 const SweepOptions& options) {
  HIVESIM_RETURN_IF_ERROR(spec.Validate());
  std::vector<SweepCell> cells = ExpandSweep(spec);
  SweepAggregator aggregator(spec, cells);

  // Snapshot the process-global switch before spawning workers: cells
  // must not read it mid-run (the main thread owns it) and a globally
  // enabled process must still capture into *private* sinks — concurrent
  // cells writing the shared recorder would be both a data race and
  // nondeterministic interleaving.
  const bool capture_telemetry =
      options.per_run_telemetry || telemetry::Telemetry::Enabled();

  // Host wall time (not simulated time) for operator feedback only:
  // `wall_sec` is printed to stdout and never written to report files,
  // which must stay byte-identical across identically seeded runs.
  const double start_sec = HostClock::Seconds();
  {
    ThreadPool pool(options.threads);
    for (const SweepCell& cell : cells) {
      pool.Submit([&cell, &aggregator, capture_telemetry] {
        aggregator.Add(cell.index, RunCell(cell, capture_telemetry));
      });
    }
    pool.Wait();
  }
  if (!aggregator.complete()) {
    return Status::Internal("sweep finished with cells missing");
  }

  SweepRunSummary summary;
  summary.wall_sec = HostClock::Seconds() - start_sec;
  summary.report_json = aggregator.ReportJson();
  summary.report_csv = aggregator.ReportCsv();
  summary.manifest_json = aggregator.ManifestJson();
  summary.merged_metrics_json = aggregator.MergedMetricsJson();
  summary.failures = aggregator.failures();
  summary.cells = std::move(cells);
  summary.outcomes.reserve(summary.cells.size());
  for (size_t i = 0; i < summary.cells.size(); ++i) {
    summary.outcomes.push_back(aggregator.outcome(i));
  }
  if (!options.out_dir.empty()) {
    HIVESIM_RETURN_IF_ERROR(WriteOutputs(options, summary));
  }
  return summary;
}

}  // namespace hivesim::core

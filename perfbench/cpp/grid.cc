// paper_grid: the paper reproduction users run. Series A/B/C/D (17 fleets)
// x the 8 suitability-study models x TBS {8K, 16K, 32K}, two simulated
// hours per world, no chaos, program telemetry off: 408 worlds of at most
// 8 peers, each one core::BuildExperimentWorld plus one
// core::CompleteExperiment (the two calls RunHivemindExperiment composes).

#include <memory>
#include <utility>

#include "checks.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "models/model_zoo.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace perfbench {

using namespace hivesim;

namespace {

constexpr uint64_t kDefaultSeed = 1;
constexpr int kBatchSizes[] = {8192, 16384, 32768};

struct GridCell {
  std::string fleet;
  core::ClusterSpec cluster;
  core::ExperimentConfig config;
};

/// World seeds: a SplitMix64 stream from the workload seed, masked to the
/// integer-exact double range like the fuzzer's.
uint64_t CellSeed(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (index + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return ((z ^ (z >> 31)) & ((uint64_t{1} << 52) - 1)) | 1;
}

/// The workload's inputs: every cell of the grid with its world seed.
std::vector<GridCell> ExpandGrid(uint64_t seed) {
  std::vector<core::NamedExperiment> fleets;
  for (auto series : {core::ASeries, core::BSeries, core::CSeries,
                      core::DSeries}) {
    for (core::NamedExperiment& fleet : series()) {
      fleets.push_back(std::move(fleet));
    }
  }
  std::vector<GridCell> cells;
  for (const core::NamedExperiment& fleet : fleets) {
    for (const models::ModelId model : models::SuitabilityStudyModels()) {
      for (const int tbs : kBatchSizes) {
        GridCell cell;
        cell.fleet = fleet.name;
        cell.cluster = fleet.cluster;
        cell.config.model = model;
        cell.config.target_batch_size = tbs;
        cell.config.duration_sec = 2 * kHour;
        cell.config.seed = CellSeed(seed, cells.size());
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

std::string CellName(const GridCell& cell) {
  return StrCat(cell.fleet, "/", models::ModelName(cell.config.model), "/",
                cell.config.target_batch_size);
}

/// What the counting pass read from the program's own metrics registry.
struct Counts {
  telemetry::MetricsRegistry metrics;
  double host_s = 0;  ///< Set-up plus timed host seconds, sinks on.
  double render_s = 0;
  double trace_bytes = 0;
};

class PaperGrid : public WorkloadRunner {
 public:
  explicit PaperGrid(uint64_t seed) : seed_(seed) {}

  Status Load(const std::string& data_dir) {
    HIVESIM_ASSIGN_OR_RETURN(paper_,
                             LoadPaperTable(data_dir + "/paper_figs7_9.tsv"));
    if (seed_ == kDefaultSeed) {
      HIVESIM_ASSIGN_OR_RETURN(
          headlines_, LoadHeadlines(data_dir + "/grid_headlines.tsv"));
    }
    return Status::OK();
  }

  Rep RunRep(SpanRecorder* spans) override { return Pass(spans, nullptr); }

  void LayerMetrics(const std::vector<Span>& spans,
                    const std::vector<int>& rep_ids,
                    const std::vector<Rep>& untraced,
                    Report* report) override {
    Counts counts;
    const Rep counted = Pass(nullptr, &counts);
    report->problems.insert(report->problems.end(), counted.problems.begin(),
                            counted.problems.end());
    const auto counter = [&](const char* name) {
      return counts.metrics.CounterValue(name);
    };
    std::map<std::string, double>& m = report->per_layer;
    m["core.expand_s"] = MedianPerRep(spans, rep_ids, "core.expand", false);
    m["core.build_s"] = MedianPerRep(spans, rep_ids, "core.build", false);
    m["core.build.calls"] = CallsPerRep(spans, rep_ids, "core.build");
    m["core.complete_s"] = MedianPerRep(spans, rep_ids, "core.complete", false);
    m["core.complete.calls"] = CallsPerRep(spans, rep_ids, "core.complete");
    for (const char* name :
         {"trainer.epochs", "trainer.round_retries", "trainer.rounds_degraded",
          "collective.rounds", "collective.transfers", "collective.aborts",
          "net.flows_started", "net.flows_completed", "net.flows_cancelled",
          "sim.events_fired", "sim.events_cancelled"}) {
      m[name] = counter(name);
    }
    const double epochs = counter("trainer.epochs");
    const double events = counter("sim.events_fired");
    const double rounds = counter("collective.rounds");
    m["trainer.host_us_per_epoch"] =
        epochs > 0 ? m["core.complete_s"] / epochs * 1e6 : 0.0;
    m["collective.abort_ratio"] =
        rounds > 0 ? counter("collective.aborts") / rounds : 0.0;
    m["sim.host_ns_per_event"] =
        events > 0 ? m["core.complete_s"] / events * 1e9 : 0.0;
    std::vector<double> off;
    for (const Rep& rep : untraced) off.push_back(rep.setup_s + rep.timed_s);
    m["telemetry.on_off_ratio"] = counts.host_s / Median(off);
    m["telemetry.render_s"] = counts.render_s;
    m["telemetry.trace_bytes"] = counts.trace_bytes;
    m["paper_err_pct"] = paper_err_pct_;
  }

  std::string Summary() const override {
    return StrFormat(
        "paper_err_pct=%.3f%% over %zu out-of-sample rows of "
        "data/paper_figs7_9.tsv; %zu cells per repetition%s",
        paper_err_pct_, paper_.size(), first_.size(),
        seed_ == kDefaultSeed ? "; headlines checked against the reference"
                              : "");
  }

 private:
  /// One pass over the grid. With `counts`, every world runs with the
  /// program's trace and metrics sinks installed (the counting pass).
  Rep Pass(SpanRecorder* spans, Counts* counts) {
    Rep rep;
    std::vector<GridCell> cells;
    rep.setup_s += Timed(spans, "core.expand", [&] { cells = ExpandGrid(seed_); });
    std::vector<GridCellResult> results;
    for (const GridCell& cell : cells) {
      Traced(spans, "world", [&] {
        results.push_back(RunCell(cell, spans, counts, &rep));
      });
    }
    if (counts != nullptr) counts->host_s = rep.setup_s + rep.timed_s;
    Check(results, &rep);
    return rep;
  }

  GridCellResult RunCell(const GridCell& cell, SpanRecorder* spans,
                         Counts* counts, Rep* rep) {
    GridCellResult out;
    out.fleet = cell.fleet;
    out.model = std::string(models::ModelName(cell.config.model));
    out.tbs = cell.config.target_batch_size;
    ++rep->attempted;

    telemetry::TraceRecorder trace;
    telemetry::MetricsRegistry metrics;
    std::unique_ptr<telemetry::Telemetry::ScopedSinks> sinks;
    if (counts != nullptr) {
      sinks = std::make_unique<telemetry::Telemetry::ScopedSinks>(&trace,
                                                                  &metrics);
    }
    std::unique_ptr<core::ExperimentWorld> world;
    Status status = Status::OK();
    rep->setup_s += Timed(spans, "core.build", [&] {
      auto built = core::BuildExperimentWorld(cell.cluster, cell.config);
      if (built.ok()) {
        world = std::move(*built);
      } else {
        status = built.status();
      }
    });
    core::ExperimentResult result;
    if (status.ok()) {
      rep->Step(spans, "core.complete", [&] {
        auto completed = core::CompleteExperiment(*world, cell.config);
        if (completed.ok()) {
          result = std::move(*completed);
        } else {
          status = completed.status();
        }
      });
      rep->sim_s += world->sim.Now();
    }
    sinks.reset();
    if (!status.ok()) {
      ++rep->failed;
      rep->problems.push_back(CellName(cell) + ": " + status.ToString());
      return out;
    }
    if (counts != nullptr) {
      counts->render_s += Timed(nullptr, "", [&] {
        counts->trace_bytes += static_cast<double>(
            trace.ToChromeJson().size() + metrics.ToJson().size());
      });
      counts->metrics.Merge(metrics);
    }
    const std::vector<std::string> cost =
        CheckCostIdentity(CellName(cell), result);
    rep->problems.insert(rep->problems.end(), cost.begin(), cost.end());
    out.ok = true;
    out.sps = result.train.throughput_sps;
    out.granularity = result.train.granularity;
    out.cost_per_million = result.cost_per_million;
    return out;
  }

  void Check(const std::vector<GridCellResult>& results, Rep* rep) {
    auto add = [&](std::vector<std::string> problems) {
      rep->problems.insert(rep->problems.end(), problems.begin(),
                           problems.end());
    };
    add(CheckOrderings(results));
    if (seed_ == kDefaultSeed) add(CheckHeadlines(results, headlines_));
    if (first_.empty()) {
      first_ = results;
      auto err = PaperErrorPct(results, paper_);
      if (err.ok()) {
        paper_err_pct_ = *err;
      } else {
        rep->problems.push_back("paper_err_pct: " + err.status().ToString());
      }
      return;
    }
    // Every pass, with or without the program's telemetry, simulates the
    // same worlds: results must repeat bit for bit.
    for (size_t i = 0; i < results.size() && i < first_.size(); ++i) {
      if (results[i].sps != first_[i].sps ||
          results[i].granularity != first_[i].granularity ||
          results[i].cost_per_million != first_[i].cost_per_million) {
        rep->problems.push_back(StrCat("cell ", results[i].fleet, "/",
                                       results[i].model, "/", results[i].tbs,
                                       " differs between repetitions"));
      }
    }
  }

  uint64_t seed_;
  std::vector<PaperRow> paper_;
  std::vector<HeadlineRow> headlines_;
  std::vector<GridCellResult> first_;
  double paper_err_pct_ = 0;
};

}  // namespace

std::unique_ptr<WorkloadRunner> MakePaperGrid(const RunOptions& options,
                                              Report* report) {
  auto grid = std::make_unique<PaperGrid>(options.seed);
  const Status loaded = grid->Load(options.data_dir);
  if (!loaded.ok()) {
    report->problems.push_back(loaded.ToString());
    return nullptr;
  }
  return grid;
}

uint64_t GridInputsDigest(uint64_t seed) {
  uint64_t digest = kFnvBasis;
  for (const GridCell& cell : ExpandGrid(seed)) {
    FnvFold(&digest, StrCat(CellName(cell), "/", cell.config.seed, "/",
                            cell.cluster.TotalVms()));
  }
  return digest;
}

std::string EmitGridHeadlines(uint64_t seed) {
  std::string out =
      "# fleet\tmodel\ttbs\tsps\tcost_per_million  (TBS 32768, CONV and "
      "RXLM; regenerate with perfbench --emit-reference)\n";
  for (const GridCell& cell : ExpandGrid(seed)) {
    const std::string_view model = models::ModelName(cell.config.model);
    if (cell.config.target_batch_size != 32768 ||
        (model != "CONV" && model != "RXLM")) {
      continue;
    }
    auto result = core::RunHivemindExperiment(cell.cluster, cell.config);
    if (!result.ok()) continue;
    out += StrFormat("%s\t%s\t%d\t%.17g\t%.17g\n", cell.fleet.c_str(),
                     std::string(model).c_str(), cell.config.target_batch_size,
                     result->train.throughput_sps, result->cost_per_million);
  }
  return out;
}

std::string EmitTransferSizes(uint64_t seed) {
  std::string out =
      "# model\tmean_transfer_bytes  (net.bytes_delivered / "
      "net.flows_completed over series A-D at TBS 32768; fleet_churn's "
      "kTransferBytes)\n";
  for (const models::ModelId model : models::SuitabilityStudyModels()) {
    double bytes = 0;
    double flows = 0;
    for (const GridCell& cell : ExpandGrid(seed)) {
      if (cell.config.model != model ||
          cell.config.target_batch_size != kPaperTbs) {
        continue;
      }
      telemetry::TraceRecorder trace;
      telemetry::MetricsRegistry metrics;
      telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
      if (!core::RunHivemindExperiment(cell.cluster, cell.config).ok()) {
        continue;
      }
      bytes += metrics.CounterValue("net.bytes_delivered");
      flows += metrics.CounterValue("net.flows_completed");
    }
    out += StrFormat("%s\t%.4g\n",
                     std::string(models::ModelName(model)).c_str(),
                     flows > 0 ? bytes / flows : 0.0);
  }
  return out;
}

}  // namespace perfbench

// hivesim — command-line front end to the simulation library.
//
// Subcommands:
//   list                       Models, VM types, and named experiments.
//   run                        Run a named experiment series.
//     --series A|B|C|D|lambda  (default A)
//     --model CONV|RXLM|...    (default CONV)
//     --tbs N                  (default 32768)
//     --hours H                (default 2)
//     --csv PATH / --json PATH Optional exports.
//   fleet                      Run a custom fleet.
//     --spec "gc-us:4,gc-eu:4" VM groups site:count (gc-us, gc-eu,
//                              gc-asia, gc-aus, aws, azure, lambda).
//     --model / --tbs / --hours as above.
//   run/fleet also accept:
//     --scenario PATH          Arm a scenario pack (JSON fault script;
//                              docs/SCENARIOS.md) against the fleet
//                              and print the chaos fingerprint.
//     --trace-out PATH         Chrome trace_event JSON of the run
//                              (open in https://ui.perfetto.dev).
//     --metrics-out PATH       Counter/gauge/histogram snapshot as JSON.
//     --analysis-out PATH      Critical-path analysis of the run (schema
//                              hivesim-analysis/1): `hivesim analyze` of
//                              the bytes --trace-out/--metrics-out write.
//   analyze                    Post-hoc critical-path / bottleneck
//                              attribution of a recorded trace
//                              (docs/OBSERVABILITY.md).
//     --trace PATH             Chrome trace JSON from --trace-out (or a
//                              sweep cell's runs/ directory). Required.
//     --metrics PATH           Optional metrics snapshot; adds the
//                              trace-vs-counter reconciliation section.
//     --out PATH               Write analysis.json (deterministic:
//                              same trace => identical bytes).
//     --top K                  Headroom entries (default 5).
//     --what-if F              Headroom link-speed factor (default 2).
//   advise                     Rank training options by $/1M samples.
//     --model M --min-sps S --sizes "2,4,8"
//   profile                    iperf/ping between two sites.
//     --from gc-us --to gc-eu --streams N
//   lint                       Determinism & layering static analysis
//                              over src/, tools/, bench/ (rules D1-D4,
//                              L1, P1; docs/STATIC_ANALYSIS.md).
//     --compile-commands PATH  compile_commands.json (default
//                              build/compile_commands.json).
//     --root DIR               Repository root (default ".").
//   perfgate                   Compare bench --bench-json artifacts
//                              against the committed perf baselines
//                              (docs/PERFORMANCE.md).
//     --current-dir DIR        Freshly generated BENCH_<area>.json.
//     --baseline-dir DIR       Baselines (default bench/baselines).
//     --areas a,b              Areas to gate (default chaos,fig3,fleet,
//                              fleet_100k,kernel_net,kernel_sim,
//                              kernel_telemetry).
//     --threshold F            Allowed relative slowdown (default 0.25).
//     --update                 Rewrite baselines from --current-dir.
//     --allow-new-area         An area with no baseline file yet is
//                              reported as new (warn) instead of erroring.
//   sweep                      Run a whole figure grid concurrently.
//     --series A,B             Cluster axis from named series, and/or
//     --fleets "lambda:2;gc-us:4"   custom fleets (';'-separated specs).
//     --models CONV,RXLM       Model axis ("suitability" = Fig. 3/4 set).
//     --tbs 8192,16384,32768   Target-batch-size axis.
//     --seeds 1,2              Seed axis.
//     --chaos none,partition   Chaos axis: none or builtin pack names
//                              (wan-degrade, partition, churn,
//                              zone-diurnal); see docs/SWEEPS.md.
//     --scenarios p1.json,p2   Scenario packs appended to the chaos axis;
//                              each cell label is the pack's name.
//     --hours H --title T      Shared run length / report title.
//     --threads N              Worker threads (results are byte-identical
//                              for any N; see tests/sweep_test.cc).
//     --out DIR                Write report.json/report.csv/manifest.json/
//                              metrics_merged.json (+ per-run telemetry
//                              under DIR/runs with --telemetry).
//     --telemetry              Per-cell trace + metrics capture.
//   reproduce                  Print the paper's tables, figures and
//                              ablations with their paper-vs-simulated
//                              anchors (every sweep cell on all cores;
//                              the output is the same for any count).
//     --figure ID[,ID...]      Only these registry ids (fig7, table3,
//                              ablation_dpu, ...; a bad id lists them).
//     --csv-dir DIR            Also write each comparison table as CSV.
//   scenario                   Inspect scenario packs (docs/SCENARIOS.md).
//     --check PATH             Parse + validate; print a summary.
//     --canonicalize PATH      Parse and print the canonical JSON bytes.
//     --dump-builtin NAME      Print a builtin pack (wan-degrade,
//                              partition, churn, zone-diurnal) — what the
//                              committed scenarios/<name>.json holds.
//   fuzz                       Chaos fuzzer: seeded random scenario packs
//                              against random fleets, each world run
//                              twice, the oracle set checked, failures
//                              shrunk to minimal reproducer packs
//                              (docs/SCENARIOS.md).
//     --seed S --runs N        Campaign identity (same seed+runs => same
//                              verdicts, same digest, byte-identical
//                              reproducer files).
//     --budget-sec B           Wall-clock safety stop (0 = none; hitting
//                              it marks the campaign truncated).
//     --max-events K           Events per generated pack (default 6).
//     --tbs N --sim-minutes M  Fuzz-world trainer shape.
//     --repro-dir DIR          Write minimized reproducers here.
//     --no-shrink              Report raw failing packs unshrunk.
//     --replay PATH            Re-run one committed reproducer pack's
//                              oracles instead of fuzzing (exit 0 iff
//                              it passes — the regression contract for
//                              tests/scenarios/).
//     --replay-dir DIR         Replay every *.json pack in DIR.
//
// Unknown or repeated flags are hard errors on every subcommand — a
// typo'd sweep axis would otherwise silently run the wrong grid.
//
// Examples:
//   hivesim run --series C --model RXLM
//   hivesim fleet --spec "gc-us:2,aws:2" --model CONV --json /tmp/d2.json
//   hivesim advise --model CONV --min-sps 250
//   hivesim profile --from onprem --to gc-us --streams 80
//   hivesim reproduce --figure=fig7,fig8
//   hivesim sweep --fleets "lambda:2" --models suitability
//     --tbs 8192,16384,32768 --hours 1 --threads 8 --out /tmp/fig3

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "core/advisor.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "core/granularity.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/sweep_runner.h"
#include "fuzz/fuzz.h"
#include "lint/lint.h"
#include "net/profiler.h"
#include "perfgate/perfgate.h"
#include "net/profiles.h"
#include "reproduce/reproduce.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "telemetry/analysis.h"
#include "telemetry/telemetry.h"

namespace {

using namespace hivesim;

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

Result<std::vector<core::NamedExperiment>> SeriesFor(
    const std::string& name) {
  if (name == "A") return core::ASeries();
  if (name == "B") return core::BSeries();
  if (name == "C") return core::CSeries();
  if (name == "D") return core::DSeries();
  if (name == "lambda") return core::LambdaSeries();
  return Status::InvalidArgument(
      StrCat("unknown series '", name, "' (A, B, C, D, lambda)"));
}

int CmdList(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({}); !s.ok()) return Fail(s);
  std::cout << "Models:\n";
  TableWriter models_table({"Name", "Full name", "Domain", "Params"});
  for (int m = 0; m < models::kNumModels; ++m) {
    const auto& spec = models::GetModelSpec(static_cast<models::ModelId>(m));
    models_table.AddRow({std::string(spec.name), std::string(spec.full_name),
                         std::string(models::DomainName(spec.domain)),
                         StrFormat("%.1fM", spec.params / 1e6)});
  }
  models_table.Print(std::cout);

  // On-prem sites host singleton machines, which `--spec` cannot rent.
  const net::Topology world = net::StandardWorld();
  std::string cloud_sites;
  std::string onprem_sites;
  for (const auto& [alias, site] : net::SiteAliases()) {
    const bool onprem = world.site(site).provider == net::Provider::kOnPremise;
    (onprem ? onprem_sites : cloud_sites) += alias + " ";
  }
  std::cout << "\nSites (for --spec / --from / --to):\n  " << cloud_sites
            << "\nOn-prem sites (for --from / --to only; fleets with on-prem "
               "machines are the hybrid E/F series of `reproduce "
               "--figure=fig13,fig14`):\n  "
            << onprem_sites;
  std::cout << "\n\nExperiment series: A (intra-zone), B (transatlantic), "
               "C (intercontinental), D (multi-cloud), lambda (A10s)\n";
  return 0;
}

void EnableTelemetryIfRequested(const FlagSet& flags) {
  if (!flags.GetString("trace-out", "").empty() ||
      !flags.GetString("metrics-out", "").empty() ||
      !flags.GetString("analysis-out", "").empty()) {
    telemetry::Telemetry::Enable();
  }
}

Status WriteText(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) return Status::IOError(StrCat("cannot write ", path));
  return Status::OK();
}

/// The one analysis path, behind both `hivesim analyze` and
/// --analysis-out: attribution over a Chrome trace's text, reconciled
/// against a parsed metrics snapshot when `metrics` is not null.
Result<telemetry::AnalysisReport> AnalyzeTrace(
    std::string_view trace_json, const JsonValue* metrics,
    const telemetry::AnalysisOptions& options) {
  telemetry::AnalysisReport report;
  HIVESIM_ASSIGN_OR_RETURN(report,
                           telemetry::AnalyzeChromeJson(trace_json, options));
  if (metrics != nullptr) {
    HIVESIM_RETURN_IF_ERROR(telemetry::AttachMetricsJson(&report, *metrics));
  }
  return report;
}

/// Writes the dumps requested via --trace-out/--metrics-out/
/// --analysis-out; 0 on success. Each text is rendered once, and the
/// analysis reads the same bytes the two files hold.
int WriteTelemetryOutputs(const FlagSet& flags) {
  const std::string trace_path = flags.GetString("trace-out", "");
  const std::string metrics_path = flags.GetString("metrics-out", "");
  const std::string analysis_path = flags.GetString("analysis-out", "");
  const bool analyze = !analysis_path.empty();
  std::string trace;
  if (analyze || !trace_path.empty()) {
    trace = telemetry::Telemetry::trace().ToChromeJson();
  }
  std::string metrics;
  if (analyze || !metrics_path.empty()) {
    metrics = telemetry::Telemetry::metrics().ToJson() + "\n";
  }
  if (!trace_path.empty()) {
    if (Status s = WriteText(trace_path, trace); !s.ok()) return Fail(s);
  }
  if (!metrics_path.empty()) {
    if (Status s = WriteText(metrics_path, metrics); !s.ok()) return Fail(s);
  }
  if (analyze) {
    auto doc = ParseJson(metrics);
    if (!doc.ok()) return Fail(doc.status());
    auto report = AnalyzeTrace(trace, &*doc, {});
    if (!report.ok()) return Fail(report.status());
    if (Status s = WriteText(analysis_path, report->ToJson() + "\n");
        !s.ok()) {
      return Fail(s);
    }
  }
  return 0;
}

/// The pack named by --scenario, or none when the flag is absent.
Result<std::optional<scenario::ScenarioPack>> LoadScenarioFlag(
    const FlagSet& flags) {
  const std::string path = flags.GetString("scenario", "");
  if (path.empty()) return std::optional<scenario::ScenarioPack>();
  scenario::ScenarioPack pack;
  HIVESIM_ASSIGN_OR_RETURN(pack, scenario::LoadScenarioFile(path));
  return std::optional<scenario::ScenarioPack>(std::move(pack));
}

/// Prints a scenario run's chaos fingerprint: the replay handle, the
/// same number sweep manifests record.
void PrintFingerprint(const std::string& label,
                      const scenario::ScenarioPack& pack,
                      const core::ExperimentResult& result) {
  std::cout << label << ": scenario " << pack.name << " fingerprint "
            << StrFormat("%016llx", static_cast<unsigned long long>(
                                        result.chaos_fingerprint))
            << "\n";
}

int CmdRun(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"series", "model", "tbs", "hours", "csv",
                                   "json", "scenario", "trace-out",
                                   "metrics-out", "analysis-out"});
      !s.ok()) {
    return Fail(s);
  }
  EnableTelemetryIfRequested(flags);
  auto series = SeriesFor(flags.GetString("series", "A"));
  if (!series.ok()) return Fail(series.status());
  auto model = models::ParseModelId(flags.GetString("model", "CONV"));
  if (!model.ok()) return Fail(model.status());
  auto tbs = flags.GetInt("tbs", 32768);
  if (!tbs.ok()) return Fail(tbs.status());
  auto hours = flags.GetDouble("hours", 2.0);
  if (!hours.ok()) return Fail(hours.status());
  auto loaded = LoadScenarioFlag(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  const scenario::ScenarioPack* pack =
      loaded->has_value() ? &loaded->value() : nullptr;

  core::ReportBuilder report(
      StrCat("series ", flags.GetString("series", "A"), " / ",
             models::ModelName(*model)));
  bool any_failed = false;
  for (const auto& experiment : *series) {
    core::ExperimentConfig config;
    config.model = *model;
    config.target_batch_size = *tbs;
    config.duration_sec = *hours * kHour;
    auto result =
        core::RunHivemindExperiment(experiment.cluster, config, pack);
    if (!result.ok()) {
      std::cerr << experiment.name << ": " << result.status().ToString()
                << "\n";
      any_failed = true;
      continue;
    }
    if (pack) PrintFingerprint(experiment.name, *pack, *result);
    report.Add(experiment.name, std::move(*result));
  }
  report.PrintTable(std::cout);

  const std::string csv = flags.GetString("csv", "");
  if (!csv.empty()) {
    if (Status s = report.WriteCsv(csv); !s.ok()) return Fail(s);
  }
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (Status s = WriteText(json_path, report.ToJson() + "\n"); !s.ok()) {
      return Fail(s);
    }
  }
  if (int rc = WriteTelemetryOutputs(flags); rc != 0) return rc;
  // The table holds the experiments that ran; each failure printed its
  // status above and fails the command.
  return any_failed ? 1 : 0;
}

int CmdFleet(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"spec", "model", "tbs", "hours", "json",
                                   "scenario", "trace-out", "metrics-out",
                                   "analysis-out"});
      !s.ok()) {
    return Fail(s);
  }
  EnableTelemetryIfRequested(flags);
  const std::string spec = flags.GetString("spec", "gc-us:8");
  auto cluster = core::ParseFleetSpec(spec);
  if (!cluster.ok()) return Fail(cluster.status());
  auto model = models::ParseModelId(flags.GetString("model", "CONV"));
  if (!model.ok()) return Fail(model.status());
  auto tbs = flags.GetInt("tbs", 32768);
  if (!tbs.ok()) return Fail(tbs.status());
  auto hours = flags.GetDouble("hours", 2.0);
  if (!hours.ok()) return Fail(hours.status());
  auto loaded = LoadScenarioFlag(flags);
  if (!loaded.ok()) return Fail(loaded.status());
  const scenario::ScenarioPack* pack =
      loaded->has_value() ? &loaded->value() : nullptr;

  core::ExperimentConfig config;
  config.model = *model;
  config.target_batch_size = *tbs;
  config.duration_sec = *hours * kHour;
  auto result = core::RunHivemindExperiment(*cluster, config, pack);
  if (!result.ok()) return Fail(result.status());
  if (pack) PrintFingerprint(spec, *pack, *result);

  core::ReportBuilder report(StrCat("fleet ", spec));
  const double granularity = result->train.granularity;
  report.Add(spec, std::move(*result));
  report.PrintTable(std::cout);
  std::cout << "Scaling outlook: "
            << core::SuitabilityAdvice(
                   core::ClassifyGranularity(granularity))
            << "\n";
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (Status s = WriteText(json_path, report.ToJson() + "\n"); !s.ok()) {
      return Fail(s);
    }
  }
  return WriteTelemetryOutputs(flags);
}

/// Splits a comma list and parses each field as a non-negative int; a
/// field out of int's range is refused, never clamped.
Result<std::vector<int>> ParseIntList(const std::string& text,
                                      const char* what) {
  std::vector<int> values;
  for (const std::string& field : StrSplit(text, ',')) {
    const Result<int> v = ParseIntArg(what, field);
    if (!v.ok() || *v < 0) {
      return Status::InvalidArgument(
          StrCat("bad ", what, " '", field, "' (want a non-negative int)"));
    }
    values.push_back(*v);
  }
  return values;
}

int CmdAdvise(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"model", "min-sps", "sizes"}); !s.ok()) {
    return Fail(s);
  }
  core::AdvisorRequest request;
  auto model = models::ParseModelId(flags.GetString("model", "CONV"));
  if (!model.ok()) return Fail(model.status());
  request.model = *model;
  auto min_sps = flags.GetDouble("min-sps", 0.0);
  if (!min_sps.ok()) return Fail(min_sps.status());
  request.min_throughput_sps = *min_sps;
  auto sizes = ParseIntList(flags.GetString("sizes", "2,4,8"), "--sizes");
  if (!sizes.ok()) return Fail(sizes.status());
  request.fleet_sizes.clear();
  for (const int size : *sizes) {
    if (size == 0) {
      return Fail(Status::InvalidArgument("--sizes entries must be >= 1"));
    }
    request.fleet_sizes.push_back(size);
  }
  auto options = core::RankTrainingOptions(request);
  if (!options.ok()) return Fail(options.status());

  TableWriter table({"Setup", "SPS", "$/h", "$/1M", "Meets target"});
  for (const auto& option : *options) {
    if (option.throughput_sps <= 0) continue;
    table.AddRow({option.description,
                  StrFormat("%.1f", option.throughput_sps),
                  StrFormat("%.2f", option.cost_per_hour),
                  StrFormat("%.2f", option.cost_per_million),
                  option.meets_target ? "yes" : "no"});
  }
  table.Print(std::cout);
  return 0;
}

int CmdProfile(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"from", "to", "streams"}); !s.ok()) {
    return Fail(s);
  }
  const auto& aliases = net::SiteAliases();
  auto from = aliases.find(flags.GetString("from", "gc-us"));
  auto to = aliases.find(flags.GetString("to", "gc-eu"));
  if (from == aliases.end() || to == aliases.end()) {
    return Fail(Status::InvalidArgument("unknown --from/--to site"));
  }
  auto streams = flags.GetInt("streams", 1);
  if (!streams.ok()) return Fail(streams.status());

  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);
  net::Profiler profiler(&network);
  const net::NodeId src =
      topo.AddNode(from->second, from->second == net::kOnPremEu
                                     ? net::OnPremNetConfig()
                                     : net::CloudVmNetConfig());
  const net::NodeId dst = topo.AddNode(to->second, net::CloudVmNetConfig());
  auto bps = profiler.Iperf(src, dst, 10.0, *streams);
  if (!bps.ok()) return Fail(bps.status());
  auto ping = profiler.PingMs(src, dst);
  if (!ping.ok()) return Fail(ping.status());
  std::cout << from->first << " -> " << to->first << " (" << *streams
            << (*streams == 1 ? " stream" : " streams")
            << "): " << FormatRate(*bps) << ", ping "
            << StrFormat("%.1f ms", *ping) << "\n";
  return 0;
}

int CmdSweep(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"series", "fleets", "models", "tbs",
                                   "seeds", "chaos", "scenarios", "hours",
                                   "title", "threads", "out", "telemetry"});
      !s.ok()) {
    return Fail(s);
  }

  core::SweepSpec spec;
  spec.title = flags.GetString("title", "sweep");

  // Cluster axis: named series and/or custom fleet specs.
  const std::string series_list = flags.GetString("series", "");
  if (!series_list.empty()) {
    for (const std::string& name : StrSplit(series_list, ',')) {
      auto series = SeriesFor(name);
      if (!series.ok()) return Fail(series.status());
      spec.clusters.insert(spec.clusters.end(), series->begin(),
                           series->end());
    }
  }
  const std::string fleets = flags.GetString("fleets", "");
  if (!fleets.empty()) {
    for (const std::string& fleet_spec : StrSplit(fleets, ';')) {
      auto cluster = core::ParseFleetSpec(fleet_spec);
      if (!cluster.ok()) return Fail(cluster.status());
      spec.clusters.push_back(core::NamedExperiment{fleet_spec, *cluster});
    }
  }
  if (spec.clusters.empty()) {
    return Fail(Status::InvalidArgument(
        "sweep needs a cluster axis: --series and/or --fleets"));
  }

  const std::string model_list = flags.GetString("models", "CONV");
  spec.models.clear();
  if (model_list == "suitability") {
    spec.models = models::SuitabilityStudyModels();
  } else {
    for (const std::string& name : StrSplit(model_list, ',')) {
      auto model = models::ParseModelId(name);
      if (!model.ok()) return Fail(model.status());
      spec.models.push_back(*model);
    }
  }

  auto tbs_list = ParseIntList(flags.GetString("tbs", "32768"), "--tbs");
  if (!tbs_list.ok()) return Fail(tbs_list.status());
  spec.target_batch_sizes.assign(tbs_list->begin(), tbs_list->end());

  // Seeds are 64-bit: each entry takes the whole unsigned range.
  spec.seeds.clear();
  for (const std::string& field :
       StrSplit(flags.GetString("seeds", "1"), ',')) {
    auto seed = ParseUint64Arg("--seeds entry", field);
    if (!seed.ok()) return Fail(seed.status());
    spec.seeds.push_back(*seed);
  }

  // The chaos axis: --chaos names ("none" or a builtin pack), then the
  // --scenarios packs, each labelled with the pack's own name.
  spec.chaos.clear();
  for (const std::string& name :
       StrSplit(flags.GetString("chaos", "none"), ',')) {
    if (name == "none") {
      spec.chaos.push_back({name, std::nullopt});
      continue;
    }
    auto pack = scenario::BuiltinScenario(name);
    if (!pack.ok()) return Fail(pack.status());
    spec.chaos.push_back({name, std::move(*pack)});
  }
  const std::string scenario_paths = flags.GetString("scenarios", "");
  if (!scenario_paths.empty()) {
    for (const std::string& path : StrSplit(scenario_paths, ',')) {
      auto pack = scenario::LoadScenarioFile(path);
      if (!pack.ok()) return Fail(pack.status());
      spec.chaos.push_back({pack->name, std::move(*pack)});
    }
  }

  auto hours = flags.GetDouble("hours", 2.0);
  if (!hours.ok()) return Fail(hours.status());
  spec.duration_sec = *hours * kHour;

  core::SweepOptions options;
  auto threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return Fail(threads.status());
  options.threads = *threads;
  options.out_dir = flags.GetString("out", "");
  options.per_run_telemetry = flags.GetBool("telemetry", false);

  auto summary = core::RunSweep(spec, options);
  if (!summary.ok()) return Fail(summary.status());

  core::ReportBuilder report(spec.title);
  for (size_t i = 0; i < summary->cells.size(); ++i) {
    if (summary->outcomes[i].ok) {
      report.Add(summary->cells[i].name, summary->outcomes[i].result);
    }
  }
  report.PrintTable(std::cout);
  for (size_t i = 0; i < summary->cells.size(); ++i) {
    if (!summary->outcomes[i].ok) {
      std::cerr << summary->cells[i].name << ": "
                << summary->outcomes[i].error << "\n";
    }
  }
  std::cout << StrFormat(
      "%zu cells, %d failed, %.2fs wall on %d thread%s\n",
      summary->cells.size(), summary->failures, summary->wall_sec,
      options.threads < 1 ? 1 : options.threads,
      options.threads == 1 ? "" : "s");
  if (!options.out_dir.empty()) {
    std::cout << "wrote " << options.out_dir
              << "/{report.json,report.csv,manifest.json,"
                 "metrics_merged.json}"
              << (options.per_run_telemetry ? " + runs/*" : "") << "\n";
  }
  return summary->failures == 0 ? 0 : 1;
}

int CmdReproduce(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"figure", "csv-dir"}); !s.ok()) {
    return Fail(s);
  }
  reproduce::Options options;
  const std::string figures = flags.GetString("figure", "");
  if (!figures.empty()) options.figures = StrSplit(figures, ',');
  options.csv_dir = flags.GetString("csv-dir", "");
  options.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  auto anchors = reproduce::Reproduce(options, std::cout);
  return anchors.ok() ? 0 : Fail(anchors.status());
}

int CmdAnalyze(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"trace", "metrics", "out", "top",
                                   "what-if"});
      !s.ok()) {
    return Fail(s);
  }
  const std::string trace_path = flags.GetString("trace", "");
  if (trace_path.empty()) {
    return Fail(Status::InvalidArgument(
        "analyze needs --trace with a Chrome trace JSON (see --trace-out)"));
  }
  telemetry::AnalysisOptions options;
  auto top = flags.GetInt("top", options.top_k);
  if (!top.ok()) return Fail(top.status());
  if (*top < 0) {
    return Fail(Status::InvalidArgument("--top must be non-negative"));
  }
  options.top_k = *top;
  auto what_if = flags.GetDouble("what-if", options.what_if_factor);
  if (!what_if.ok()) return Fail(what_if.status());
  if (!(*what_if >= 1.0)) {
    return Fail(Status::InvalidArgument("--what-if must be >= 1"));
  }
  options.what_if_factor = *what_if;

  std::ifstream in(trace_path, std::ios::binary);
  if (!in) {
    return Fail(Status::IOError(StrCat("cannot read ", trace_path)));
  }
  std::ostringstream trace;
  trace << in.rdbuf();
  std::optional<JsonValue> metrics;
  const std::string metrics_path = flags.GetString("metrics", "");
  if (!metrics_path.empty()) {
    auto doc = ParseJsonFile(metrics_path);
    if (!doc.ok()) return Fail(doc.status());
    metrics = std::move(*doc);
  }
  auto report =
      AnalyzeTrace(trace.str(), metrics ? &*metrics : nullptr, options);
  if (!report.ok()) return Fail(report.status());

  report->PrintTable(std::cout);
  const std::string out_path = flags.GetString("out", "");
  if (!out_path.empty()) {
    if (Status s = WriteText(out_path, report->ToJson() + "\n"); !s.ok()) {
      return Fail(s);
    }
  }
  return 0;
}

int CmdLint(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"compile-commands", "root", "json"});
      !s.ok()) {
    return Fail(s);
  }
  lint::LintOptions options;
  options.repo_root = flags.GetString("root", ".");
  options.compile_commands_path =
      flags.GetString("compile-commands", "build/compile_commands.json");
  options.entry_roots = lint::ShippedEntryRoots();
  auto report = lint::RunLint(options);
  if (!report.ok()) return Fail(report.status());
  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (Status s = WriteText(json_path, lint::JsonReport(*report) + "\n");
        !s.ok()) {
      return Fail(s);
    }
  }
  std::cout << lint::FormatReport(*report);
  if (!report->diagnostics.empty()) {
    std::cout << "suppress a deliberate exception with "
                 "'// hivesim-lint: allow(<rule>) reason=<why>' on the "
                 "offending line or the line above it\n";
  }
  return lint::ExitCode(*report);
}

int CmdPerfGate(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"baseline-dir", "current-dir", "areas",
                                   "threshold", "update", "allow-new-area"});
      !s.ok()) {
    return Fail(s);
  }
  perfgate::GateOptions options;
  options.baseline_dir = flags.GetString("baseline-dir", "bench/baselines");
  options.current_dir = flags.GetString("current-dir", "");
  if (options.current_dir.empty()) {
    return Fail(Status::InvalidArgument(
        "perfgate needs --current-dir with the fresh BENCH_*.json"));
  }
  const std::string areas = flags.GetString("areas", "");
  if (!areas.empty()) options.areas = StrSplit(areas, ',');
  auto threshold = flags.GetDouble("threshold", options.default_threshold);
  if (!threshold.ok()) return Fail(threshold.status());
  if (!(*threshold > 0)) {
    return Fail(Status::InvalidArgument("--threshold must be positive"));
  }
  options.default_threshold = *threshold;
  options.update = flags.GetBool("update", false);
  options.allow_new_area = flags.GetBool("allow-new-area", false);

  auto report = perfgate::Run(options);
  if (!report.ok()) return Fail(report.status());
  if (options.update) {
    std::cout << "perf baselines updated in " << options.baseline_dir
              << " (" << report->rows.size() << " benches)\n";
    return 0;
  }
  std::cout << perfgate::FormatReport(*report);
  return report->failed ? 1 : 0;
}

int CmdScenario(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"check", "canonicalize", "dump-builtin"});
      !s.ok()) {
    return Fail(s);
  }
  const std::string check = flags.GetString("check", "");
  const std::string canonicalize = flags.GetString("canonicalize", "");
  const std::string builtin = flags.GetString("dump-builtin", "");
  const int modes = static_cast<int>(!check.empty()) +
                    static_cast<int>(!canonicalize.empty()) +
                    static_cast<int>(!builtin.empty());
  if (modes != 1) {
    return Fail(Status::InvalidArgument(
        "scenario wants exactly one of --check PATH, --canonicalize PATH, "
        "--dump-builtin NAME"));
  }
  if (!builtin.empty()) {
    auto pack = scenario::BuiltinScenario(builtin);
    if (!pack.ok()) return Fail(pack.status());
    std::cout << scenario::ScenarioToJson(*pack) << "\n";
    return 0;
  }
  auto pack = scenario::LoadScenarioFile(check.empty() ? canonicalize : check);
  if (!pack.ok()) return Fail(pack.status());
  if (!canonicalize.empty()) {
    std::cout << scenario::ScenarioToJson(*pack) << "\n";
    return 0;
  }
  std::cout << "ok: " << pack->name << " (" << pack->NumEvents()
            << (pack->NumEvents() == 1 ? " event" : " events")
            << (pack->repro.present
                    ? StrCat(", reproducer for fleet ", pack->repro.fleet,
                             ", oracle ", pack->repro.oracle)
                    : "")
            << ")\n";
  return 0;
}

/// Replays reproducer packs: exit 0 iff every pack's oracle set passes.
/// This is the regression contract for tests/scenarios/ — a committed
/// reproducer documents a *fixed* bug, so it must replay clean.
int ReplayPacks(const std::vector<std::string>& paths,
                const fuzz::FuzzOptions& options) {
  int failures = 0;
  for (const std::string& path : paths) {
    auto verdict = fuzz::ReplayScenarioFile(path, options);
    if (!verdict.ok()) return Fail(verdict.status());
    if (!verdict->ran) {
      ++failures;
      std::cout << path << ": rejected (" << verdict->detail << ")\n";
    } else if (!verdict->ok) {
      ++failures;
      std::cout << path << ": FAIL oracle " << verdict->oracle << ": "
                << verdict->detail << "\n";
    } else {
      std::cout << path << ": ok\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

int CmdFuzz(const FlagSet& flags) {
  if (Status s = flags.CheckKnown({"seed", "runs", "budget-sec", "max-events",
                                   "tbs", "sim-minutes", "repro-dir",
                                   "no-shrink", "inject-ordering-bug",
                                   "replay", "replay-dir"});
      !s.ok()) {
    return Fail(s);
  }
  fuzz::FuzzOptions options;
  // The campaign seed is 64-bit: parsed as such, never cast from an int.
  auto seed = ParseUint64Arg("flag --seed", flags.GetString("seed", "1"));
  if (!seed.ok()) return Fail(seed.status());
  options.seed = *seed;
  auto runs = flags.GetInt("runs", 20);
  if (!runs.ok()) return Fail(runs.status());
  options.runs = *runs;
  auto budget = flags.GetDouble("budget-sec", 0.0);
  if (!budget.ok()) return Fail(budget.status());
  options.budget_sec = *budget;
  auto max_events = flags.GetInt("max-events", 6);
  if (!max_events.ok()) return Fail(max_events.status());
  options.max_events = *max_events;
  auto tbs = flags.GetInt("tbs", 4096);
  if (!tbs.ok()) return Fail(tbs.status());
  options.target_batch_size = *tbs;
  auto minutes = flags.GetDouble("sim-minutes", 30.0);
  if (!minutes.ok()) return Fail(minutes.status());
  options.sim_duration_sec = *minutes * 60.0;
  options.repro_dir = flags.GetString("repro-dir", "");
  options.shrink = !flags.GetBool("no-shrink", false);
  options.inject_ordering_bug = flags.GetBool("inject-ordering-bug", false);

  const std::string replay = flags.GetString("replay", "");
  const std::string replay_dir = flags.GetString("replay-dir", "");
  if (!replay.empty() || !replay_dir.empty()) {
    std::vector<std::string> paths;
    if (!replay.empty()) paths.push_back(replay);
    if (!replay_dir.empty()) {
      namespace fs = std::filesystem;
      std::error_code ec;
      for (const auto& entry : fs::directory_iterator(replay_dir, ec)) {
        if (entry.path().extension() == ".json") {
          paths.push_back(entry.path().string());
        }
      }
      if (ec) {
        return Fail(Status::IOError(
            StrCat("cannot read ", replay_dir, ": ", ec.message())));
      }
      std::sort(paths.begin(), paths.end());
    }
    if (paths.empty()) {
      std::cout << "no reproducer packs to replay in " << replay_dir << "\n";
      return 0;
    }
    return ReplayPacks(paths, options);
  }

  auto result = fuzz::RunCampaign(options);
  if (!result.ok()) return Fail(result.status());
  std::cout << StrFormat(
      "fuzz seed %llu: %d cases (%d ran, %d rejected), %d failure%s%s\n",
      static_cast<unsigned long long>(options.seed), result->cases,
      result->ran, result->rejected, result->failures,
      result->failures == 1 ? "" : "s",
      result->truncated ? " [truncated by --budget-sec]" : "");
  for (size_t i = 0; i < result->failure_oracles.size(); ++i) {
    std::cout << "  failure " << i + 1 << ": oracle "
              << result->failure_oracles[i];
    if (i < result->repro_files.size()) {
      std::cout << " -> " << result->repro_files[i];
    }
    std::cout << "\n";
  }
  std::cout << StrFormat("campaign digest %016llx\n",
                         static_cast<unsigned long long>(result->digest));
  return result->failures == 0 ? 0 : 1;
}

int Usage() {
  std::cout << "usage: hivesim <list|run|fleet|advise|profile|sweep|"
               "reproduce|scenario|fuzz|analyze|lint|perfgate> [--flags]\n"
               "See the header of tools/hivesim_cli.cc for details.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) return Fail(s);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional().front();
  if (command == "list") return CmdList(flags);
  if (command == "run") return CmdRun(flags);
  if (command == "fleet") return CmdFleet(flags);
  if (command == "advise") return CmdAdvise(flags);
  if (command == "profile") return CmdProfile(flags);
  if (command == "sweep") return CmdSweep(flags);
  if (command == "reproduce") return CmdReproduce(flags);
  if (command == "scenario") return CmdScenario(flags);
  if (command == "fuzz") return CmdFuzz(flags);
  if (command == "analyze") return CmdAnalyze(flags);
  if (command == "lint") return CmdLint(flags);
  if (command == "perfgate") return CmdPerfGate(flags);
  return Usage();
}

// The registry: every table, figure and ablation of the paper's study as
// the sweep grids it needs plus a render function that prints it. The
// printed paper numbers are the anchors; calibration anchors are the
// values EXPERIMENTS.md marks with an anchor sign, every other one is an
// out-of-sample prediction.

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "cloud/cost.h"
#include "cloud/pricing.h"
#include "common/strings.h"
#include "common/units.h"
#include "core/catalog.h"
#include "models/calibration.h"
#include "net/profiler.h"
#include "net/profiles.h"
#include "reproduce/reproduce.h"
#include "scenario/scenario.h"

namespace hivesim::reproduce {
namespace {

using core::HybridVariant;
using core::NamedExperiment;
using hivemind::RunStats;
using models::ModelId;

constexpr ModelId kConv = ModelId::kConvNextLarge;
constexpr ModelId kRxlm = ModelId::kRobertaXlm;
constexpr ModelId kWhisper = ModelId::kWhisperSmall;
constexpr AnchorTag kCal = AnchorTag::kCalibration;
constexpr AnchorTag kOut = AnchorTag::kOutOfSample;

// The single-T4 baselines of the A-1 bar (Table 2), which the A-C series
// speedups divide by.
constexpr double kT4ConvSps = 80.0;
constexpr double kT4RxlmSps = 209.0;

constexpr HybridVariant kHybridVariants[] = {
    HybridVariant::kEuT4, HybridVariant::kUsT4, HybridVariant::kUsA10};
constexpr int kTransferStreams[] = {1, 2, 4};
constexpr collective::Strategy kStrategies[] = {
    collective::Strategy::kAuto, collective::Strategy::kFlatAllToAll,
    collective::Strategy::kHierarchical};
constexpr models::Compression kCompressions[] = {
    models::Compression::kNone, models::Compression::kFp16,
    models::Compression::kInt8};
// Section 7's monthly spot interruption rates. Realistic AWS-advertised
// rates (5-20%/month) barely dent a day of training; the sweep extends
// far beyond to expose the linear relation between fleet-time lost and
// throughput. Interruptions are rare events, so each rate averages a
// few seeds.
constexpr double kSpotRates[] = {0.10, 0.30, 0.60, 0.95, 0.99999};
constexpr uint64_t kSpotSeeds[] = {13, 26, 39};

// --- Grids -----------------------------------------------------------

NamedExperiment T4Fleet(int vms) {
  return {StrCat(vms, "xT4"), {{core::GcT4s(vms)}}};
}

NamedExperiment A10Fleet(int gpus) {
  return {StrCat(gpus, "xA10"), {{core::LambdaA10s(gpus)}}};
}

/// The experiments of `series` named in `names`, in that order.
std::vector<NamedExperiment> Pick(
    const std::vector<NamedExperiment>& series,
    std::initializer_list<std::string_view> names) {
  std::vector<NamedExperiment> picked;
  for (std::string_view name : names) {
    for (const NamedExperiment& experiment : series) {
      if (experiment.name == name) picked.push_back(experiment);
    }
  }
  return picked;
}

std::vector<NamedExperiment> Concat(
    std::initializer_list<std::vector<NamedExperiment>> parts) {
  std::vector<NamedExperiment> all;
  for (const auto& part : parts) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

std::vector<NamedExperiment> HybridFleets(
    std::vector<NamedExperiment> (*series)(HybridVariant)) {
  return Concat({series(kHybridVariants[0]), series(kHybridVariants[1]),
                 series(kHybridVariants[2])});
}

core::SweepSpec Grid(std::vector<NamedExperiment> clusters,
                     std::vector<ModelId> models,
                     std::vector<int> tbs = {32768}, double hours = 2) {
  core::SweepSpec spec;
  spec.clusters = std::move(clusters);
  spec.models = std::move(models);
  spec.target_batch_sizes = std::move(tbs);
  spec.duration_sec = hours * kHour;
  return spec;
}

/// Figs. 3-4: every suitability-study model x TBS on 2xA10 for an hour.
core::SweepSpec SuitabilityTbsGrid() {
  return Grid({A10Fleet(2)}, models::SuitabilityStudyModels(),
              {8192, 16384, 32768}, 1);
}

/// Figs. 5, 6 and 12: every suitability-study model on 2-8 A10s.
core::SweepSpec A10ScalingGrid() {
  return Grid({A10Fleet(2), A10Fleet(3), A10Fleet(4), A10Fleet(8)},
              models::SuitabilityStudyModels());
}

std::vector<core::SweepSpec> StreamSpecs() {
  std::vector<core::SweepSpec> specs;
  for (int streams : kTransferStreams) {
    specs.push_back(Grid(Pick(core::BSeries(), {"B-2"}), {kRxlm}));
    specs.back().streams_per_transfer = streams;
  }
  return specs;
}

std::vector<core::SweepSpec> StrategySpecs() {
  std::vector<core::SweepSpec> specs;
  for (collective::Strategy strategy : kStrategies) {
    specs.push_back(Grid(Concat({Pick(core::BSeries(), {"B-8"}),
                                 Pick(core::CSeries(), {"C-8"})}),
                         {kRxlm}));
    specs.back().strategy = strategy;
  }
  return specs;
}

std::vector<core::SweepSpec> DpuSpecs() {
  std::vector<core::SweepSpec> specs;
  for (bool dpu : {false, true}) {
    specs.push_back(Grid({T4Fleet(8)}, models::SuitabilityStudyModels()));
    specs.back().delayed_parameter_updates = dpu;
  }
  return specs;
}

std::vector<core::SweepSpec> CompressionSpecs() {
  std::vector<core::SweepSpec> specs;
  for (models::Compression compression : kCompressions) {
    specs.push_back(Grid(Concat({Pick(core::ASeries(), {"A-8"}),
                                 Pick(core::BSeries(), {"B-2"}),
                                 Pick(core::CSeries(), {"C-8"})}),
                         {kRxlm}));
    specs.back().compression = compression;
  }
  return specs;
}

std::string SpotLabel(double rate) { return StrFormat("spot-%g", rate); }

/// The chaos axis entry renting the fleet on a spot market with `rate`.
core::ChaosAxisEntry SpotMarketEntry(double rate) {
  scenario::ScenarioPack pack;
  pack.name = SpotLabel(rate);
  pack.spot_market = scenario::SpotMarketSpec{rate};
  return {pack.name, std::move(pack)};
}

/// A day of 8xT4 CV training: the uninterrupted baseline at seed 7, then
/// every rate at every spot seed.
std::vector<core::SweepSpec> SpotSpecs() {
  std::vector<core::SweepSpec> specs(2, Grid({T4Fleet(8)}, {kConv}, {32768},
                                             24));
  specs[0].seeds = {7};
  specs[0].chaos = {SpotMarketEntry(0)};
  specs[1].seeds.assign(std::begin(kSpotSeeds), std::end(kSpotSeeds));
  specs[1].chaos.clear();
  for (double rate : kSpotRates) {
    specs[1].chaos.push_back(SpotMarketEntry(rate));
  }
  return specs;
}

std::vector<uint64_t> VarianceSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t seed = 1; seed <= 8; ++seed) seeds.push_back(seed * 101);
  return seeds;
}

std::vector<core::SweepSpec> VarianceSpecs() {
  std::vector<core::SweepSpec> specs = {
      Grid({T4Fleet(8)}, {kConv}, {32768}, 1),
      Grid({A10Fleet(2)}, {ModelId::kResNet18}, {8192, 32768}, 1)};
  for (core::SweepSpec& spec : specs) spec.seeds = VarianceSeeds();
  return specs;
}

// --- Shared render helpers -------------------------------------------

const char* YesNo(bool claim) { return claim ? "yes" : "NO"; }

/// "+12%" for a ratio of 1.12.
std::string Percent(double ratio) {
  return StrFormat("%+.0f%%", (ratio - 1.0) * 100);
}

/// Billed hours of a run. Only a figure that already failed reads a
/// result without usages, so the fallback is never printed.
double Hours(const core::ExperimentResult& result) {
  return result.usages.empty() ? 1.0 : result.usages.front().hours;
}

double A10Baseline(Page& page, ModelId model) {
  return page.Value(models::BaselineSps(model, compute::GpuModel::kA10));
}

const RunStats& A10Run(Page& page, ModelId model, int gpus) {
  return page.Cell(0, StrCat(gpus, "xA10"), model).train;
}

/// A fresh standard world with one node per (site, net config), measured
/// the way the paper measured its VMs (10 s iperf, ping).
struct Probe {
  Probe(Page& page,
        std::initializer_list<std::pair<net::SiteId, net::NodeNetConfig>> sites)
      : page(page) {
    for (const auto& [site, config] : sites) {
      nodes.push_back(topo.AddNode(site, config));
    }
  }
  double Iperf(size_t from, size_t to, int streams = 1) {
    return page.Value(profiler.Iperf(nodes[from], nodes[to], 10.0, streams));
  }
  double PingMs(size_t from, size_t to) {
    return page.Value(profiler.PingMs(nodes[from], nodes[to]));
  }

  Page& page;
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network{&sim, &topo};
  net::Profiler profiler{&network};
  std::vector<net::NodeId> nodes;
};

/// Tables 3-5: single-stream iperf (Gb/s) and ping (ms) from each `from`
/// node to each `to` node.
void PrintProbeMatrices(Page& page, Probe& probe,
                        const std::vector<std::string>& names,
                        const std::vector<size_t>& from,
                        const std::vector<size_t>& to,
                        const std::string& bandwidth_title,
                        const std::string& latency_title) {
  for (bool bandwidth : {true, false}) {
    page.Heading(bandwidth ? bandwidth_title : latency_title);
    std::vector<std::string> header = {"From \\ To"};
    for (size_t j : to) header.push_back(names[j]);
    TableWriter table(header);
    for (size_t i : from) {
      std::vector<std::string> row = {names[i]};
      for (size_t j : to) {
        row.push_back(
            bandwidth ? StrFormat("%.2f", BytesPerSecToGbps(probe.Iperf(i, j)))
                      : StrFormat("%.1f", probe.PingMs(i, j)));
      }
      table.AddRow(row);
    }
    page.Print(table);
  }
}

/// Figs. 13-14: every hybrid fleet of `series` against the on-prem
/// baseline.
void PrintHybridSeries(Page& page,
                       std::vector<NamedExperiment> (*series)(HybridVariant),
                       ModelId model, const std::string& heading,
                       const char* baseline_column, double baseline) {
  page.Heading(heading);
  TableWriter table(
      {"Exp", "Cloud GPUs", "SPS", "Granularity", baseline_column});
  for (HybridVariant variant : kHybridVariants) {
    for (const NamedExperiment& experiment : series(variant)) {
      const RunStats& run = page.Cell(0, experiment.name, model).train;
      table.AddRow({experiment.name,
                    StrFormat("%d", experiment.cluster.TotalVms() - 1),
                    StrFormat("%.1f", run.throughput_sps),
                    StrFormat("%.2f", run.granularity),
                    Percent(run.throughput_sps / baseline)});
    }
    table.AddSeparator();
  }
  page.Print(table);
}

// --- Tables 1, 3-5 and Figs. 1-6: pricing, suitability, networks -----

void Table1(Page& page) {
  using cloud::EgressPricePerGb;
  using net::Continent;
  using net::Provider;
  page.Heading("Table 1: Average us-west cloud pricing (April '23)");
  TableWriter table({"Cloud / Type", "GC", "AWS", "Azure"});
  auto price_row = [&](const char* label, auto getter) {
    table.AddRow({label,
                  StrFormat("%.3f $/h", getter(cloud::VmTypeId::kGcT4)),
                  StrFormat("%.3f $/h", getter(cloud::VmTypeId::kAwsT4)),
                  StrFormat("%.3f $/h", getter(cloud::VmTypeId::kAzureT4))});
  };
  price_row("T4 Spot", [](cloud::VmTypeId id) {
    return cloud::GetVmType(id).spot_per_hour;
  });
  price_row("T4 On-Demand", [](cloud::VmTypeId id) {
    return cloud::GetVmType(id).ondemand_per_hour;
  });
  auto egress_row = [&](const char* label, Provider to_provider,
                        Continent src, Continent dst) {
    auto rate = [&](Provider p) {
      // Cross-provider exit unless we are quoting intra-provider rows.
      const Provider dst_provider =
          to_provider == Provider::kOnPremise ? p : to_provider;
      return EgressPricePerGb(p, src, dst_provider, dst);
    };
    table.AddRow({label, StrFormat("%.2f $/GB", rate(Provider::kGoogleCloud)),
                  StrFormat("%.2f $/GB", rate(Provider::kAws)),
                  StrFormat("%.2f $/GB", rate(Provider::kAzure))});
  };
  // Same-provider, same-continent traffic (inter-zone).
  egress_row("Traffic (inter-zone)", Provider::kOnPremise, Continent::kUs,
             Continent::kUs);
  // Cross-provider exits per continent (inter-region).
  egress_row("Traffic (inter-region) US", Provider::kLambdaLabs,
             Continent::kUs, Continent::kUs);
  egress_row("Traffic (inter-region) EU", Provider::kLambdaLabs,
             Continent::kEu, Continent::kEu);
  egress_row("Traffic ANY-OCE", Provider::kOnPremise, Continent::kUs,
             Continent::kAus);
  egress_row("Traffic (between continents)", Provider::kOnPremise,
             Continent::kUs, Continent::kEu);
  page.Print(table);

  ComparisonTable check("Table 1 anchor check");
  check.Add("GC T4 spot", "$/h", 0.180,
            cloud::GetVmType(cloud::VmTypeId::kGcT4).spot_per_hour, kCal);
  check.Add("AWS T4 spot", "$/h", 0.395,
            cloud::GetVmType(cloud::VmTypeId::kAwsT4).spot_per_hour, kCal);
  check.Add("Azure T4 spot", "$/h", 0.134,
            cloud::GetVmType(cloud::VmTypeId::kAzureT4).spot_per_hour, kCal);
  check.Add("GC ANY-OCE egress", "$/GB", 0.15,
            EgressPricePerGb(Provider::kGoogleCloud, Continent::kUs,
                             Provider::kGoogleCloud, Continent::kAus),
            kCal);
  check.Add("AWS between continents", "$/GB", 0.02,
            EgressPricePerGb(Provider::kAws, Continent::kUs, Provider::kAws,
                             Continent::kEu),
            kCal);
  page.Print(check);
}

void Fig1(Page& page) {
  ComparisonTable sps("Fig. 1 - ConvNextLarge throughput (SPS)");
  ComparisonTable cost(
      "Fig. 1 - ConvNextLarge cost per 1M samples ($, spot, excl. data)");
  auto centralized = [&](const char* name, cloud::VmTypeId type,
                         double paper_sps, double paper_cost) {
    auto result = core::RunCentralizedBaseline(type, kConv);
    // A node the model does not fit on has no bar, as in the paper.
    if (result.status().code() == StatusCode::kOutOfMemory) return;
    const core::CentralizedResult node = page.Value(std::move(result));
    sps.Add(name, "SPS", paper_sps, node.throughput_sps, kCal);
    cost.Add(name, "$/1M", paper_cost, node.spot_cost_per_million, kOut);
  };
  centralized("1xT4 (GC)", cloud::VmTypeId::kGcT4, 80, 0.62);
  centralized("1xA10 (Lambda)", cloud::VmTypeId::kLambdaA10, 185, 0.90);
  centralized("DGX-2 (8xV100)", cloud::VmTypeId::kGcDgx2, 413, 4.24);
  centralized("4xT4 DDP (GC)", cloud::VmTypeId::kGc4xT4, 207, 0.96);

  // The circled decentralized setups.
  const core::ExperimentResult& t4 = page.Cell(0, "8xT4", kConv);
  sps.Add("8xT4 Hivemind", "SPS", 261.9, t4.train.throughput_sps, kOut);
  // Full metering bills every intra-zone gradient byte at $0.01/GB; the
  // paper extrapolated a lower per-VM egress figure from the 4-peer D
  // runs, which lands near the instance-only number.
  cost.Add("8xT4 (full egress metering)", "$/1M", 1.77,
           t4.cost_per_million_excl_data, kOut);
  cost.Add("8xT4 (instance only)", "$/1M", 1.77,
           cloud::CostPerMillionSamples(t4.fleet_cost.instance / Hours(t4),
                                        t4.train.throughput_sps),
           kOut);
  const core::ExperimentResult& a10 = page.Cell(0, "8xA10", kConv);
  sps.Add("8xA10 Hivemind", "SPS", 620.6, a10.train.throughput_sps, kOut);
  cost.Add("8xA10 Hivemind", "$/1M", 2.15, a10.cost_per_million_excl_data,
           kOut);
  page.Print(sps);
  page.Print(cost);

  const core::CentralizedResult dgx = page.Value(
      core::RunCentralizedBaseline(cloud::VmTypeId::kGcDgx2, kConv));
  page.out() << "Claim checks vs DGX-2:\n"
             << "  8xA10 faster than DGX-2:  "
             << YesNo(a10.train.throughput_sps > dgx.throughput_sps)
             << "\n  8xT4 cheaper per sample:  "
             << YesNo(t4.cost_per_million_excl_data <
                      dgx.spot_cost_per_million)
             << "\n  8xA10 cheaper per sample: "
             << YesNo(a10.cost_per_million_excl_data <
                      dgx.spot_cost_per_million)
             << "\n";
}

void Fig2(Page& page) {
  struct Penalty {
    double baseline = 0;  // Per-GPU baseline SPS.
    double local = 0;     // Per-GPU hivemind-local SPS.
    double global = 0;    // Per-GPU hivemind-global SPS.
  };
  auto penalty = [&](ModelId model) {
    Penalty row;
    row.baseline = A10Baseline(page, model);
    row.local = row.baseline * models::HivemindLocalPenalty(model);
    row.global = page.Cell(0, "2xA10", model).train.throughput_sps / 2.0;
    return row;
  };
  page.Heading("Fig. 2: Hivemind penalty on normalized throughputs (2xA10)");
  TableWriter table({"Model", "Baseline SPS/GPU", "Local SPS/GPU",
                     "Global SPS/GPU", "Local/Baseline", "Global/Local"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    const Penalty row = penalty(model);
    table.AddRow({std::string(models::ModelName(model)),
                  StrFormat("%.1f", row.baseline),
                  StrFormat("%.1f", row.local),
                  StrFormat("%.1f", row.global),
                  StrFormat("%.0f%%", row.local / row.baseline * 100),
                  StrFormat("%.0f%%", row.global / row.local * 100)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 2 anchor checks");
  const Penalty rn152 = penalty(ModelId::kResNet152);
  anchors.Add("RN152", "local/baseline (best case)", 0.78,
              rn152.local / rn152.baseline, kCal);
  const Penalty conv = penalty(kConv);
  anchors.Add("CONV", "local/baseline (worst case)", 0.48,
              conv.local / conv.baseline, kCal);
  anchors.Add("CONV", "global/local", 0.97, conv.global / conv.local, kOut);
  const Penalty rbase = penalty(ModelId::kRobertaBase);
  anchors.Add("RBase", "global/local", 0.87, rbase.global / rbase.local,
              kOut);
  page.Print(anchors);
}

void Fig3(Page& page) {
  auto sps = [&](ModelId model, int tbs) {
    return page.Cell(0, "2xA10", model, tbs).train.throughput_sps;
  };
  page.Heading("Fig. 3: baseline vs 2xA10 Hivemind throughput across TBS");
  TableWriter table({"Model", "Baseline SPS", "2xA10 @8K", "2xA10 @16K",
                     "2xA10 @32K"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    table.AddRow({std::string(models::ModelName(model)),
                  StrFormat("%.0f", A10Baseline(page, model)),
                  StrFormat("%.0f", sps(model, 8192)),
                  StrFormat("%.0f", sps(model, 16384)),
                  StrFormat("%.0f", sps(model, 32768))});
  }
  page.Print(table);

  ComparisonTable checks("Fig. 3 shape checks");
  // TBS growth monotonically helps the large models.
  checks.AddSimulatedOnly("CONV", "sps(32K)/sps(8K)",
                          sps(kConv, 32768) / sps(kConv, 8192));
  checks.AddSimulatedOnly("RXLM", "sps(32K)/sps(8K)",
                          sps(kRxlm, 32768) / sps(kRxlm, 8192));
  page.Print(checks);
}

void Fig4(Page& page) {
  auto run = [&](ModelId model, int tbs) -> const RunStats& {
    return page.Cell(0, "2xA10", model, tbs).train;
  };
  page.Heading(
      "Fig. 4: TBS vs per-epoch calc/comm time and granularity (2xA10)");
  TableWriter table({"Model", "TBS", "Calc (s)", "Comm (s)", "Epoch (s)",
                     "Granularity"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    for (int tbs : {8192, 16384, 32768}) {
      const RunStats& r = run(model, tbs);
      table.AddRow({std::string(models::ModelName(model)),
                    StrFormat("%d", tbs), StrFormat("%.1f", r.avg_calc_sec),
                    StrFormat("%.1f", r.avg_comm_sec),
                    StrFormat("%.1f", r.avg_calc_sec + r.avg_comm_sec),
                    StrFormat("%.2f", r.granularity)});
    }
    table.AddSeparator();
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 4 anchors at TBS 32K");
  anchors.Add("CONV", "granularity (max of Fig. 4)", 21.6,
              run(kConv, 32768).granularity, kOut);
  anchors.Add("RXLM", "granularity (min of Fig. 4)", 4.2,
              run(kRxlm, 32768).granularity, kOut);
  page.Print(anchors);

  // Shape check: doubling the TBS roughly doubles granularity (the
  // communication time stays constant).
  page.out() << StrFormat(
      "RN152 granularity doubles with TBS: g(32K)/g(16K) = %.2f\n",
      run(ModelId::kResNet152, 32768).granularity /
          run(ModelId::kResNet152, 16384).granularity);
}

void Fig5(Page& page) {
  auto sps = [&](ModelId model, int gpus) {
    return gpus == 1 ? A10Baseline(page, model)
                     : A10Run(page, model, gpus).throughput_sps;
  };
  page.Heading("Fig. 5: throughput from 1 to 8 A10 GPUs (TBS 32K)");
  TableWriter table({"Model", "1 GPU", "2 GPUs", "3 GPUs", "4 GPUs",
                     "8 GPUs", "Speedup@8"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    const double base = sps(model, 1);
    const double at8 = sps(model, 8);
    table.AddRow({std::string(models::ModelName(model)),
                  StrFormat("%.0f", base), StrFormat("%.0f", sps(model, 2)),
                  StrFormat("%.0f", sps(model, 3)),
                  StrFormat("%.0f", sps(model, 4)), StrFormat("%.0f", at8),
                  StrFormat("%.2fx", at8 / base)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 5 speedup anchors at 8 GPUs");
  const ModelId rn152 = ModelId::kResNet152;
  const ModelId rn18 = ModelId::kResNet18;
  anchors.Add("RN152", "speedup (paper's best)", 4.37,
              sps(rn152, 8) / sps(rn152, 1), kOut);
  anchors.Add("RXLM", "speedup (paper's worst)", 2.29,
              sps(kRxlm, 8) / sps(kRxlm, 1), kOut);
  anchors.Add("RN18", "per-GPU contribution @2", 0.7,
              sps(rn18, 2) / sps(rn18, 1) / 2, kOut);
  anchors.Add("RN18", "per-GPU contribution @8", 0.4,
              sps(rn18, 8) / sps(rn18, 1) / 8, kOut);
  page.Print(anchors);
}

void Fig6(Page& page) {
  page.Heading(
      "Fig. 6: multi-GPU calc/comm split and granularity (TBS 32K, A10s)");
  TableWriter table({"Model", "GPUs", "Calc (s)", "Comm (s)", "Granularity"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    for (int gpus : {2, 3, 4, 8}) {
      const RunStats& r = A10Run(page, model, gpus);
      table.AddRow({std::string(models::ModelName(model)),
                    StrFormat("%d", gpus), StrFormat("%.1f", r.avg_calc_sec),
                    StrFormat("%.1f", r.avg_comm_sec),
                    StrFormat("%.2f", r.granularity)});
    }
    table.AddSeparator();
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 6 anchors");
  anchors.Add("RN18 @8 GPUs", "granularity", 1.0,
              A10Run(page, ModelId::kResNet18, 8).granularity, kOut);
  // Section 3(3): RXLM averaging ~ 8.4s wall at 2 GPUs, ~14.4s at 8.
  anchors.Add("RXLM @2 GPUs", "comm wall (s)", 8.4,
              A10Run(page, kRxlm, 2).avg_comm_sec, kOut);
  anchors.Add("RXLM @8 GPUs", "comm wall (s)", 14.4,
              A10Run(page, kRxlm, 8).avg_comm_sec, kOut);
  page.Print(anchors);
}

void Table3(Page& page) {
  Probe probe(page, {{net::kGcUs, net::CloudVmNetConfig()},
                     {net::kGcEu, net::CloudVmNetConfig()},
                     {net::kGcAsia, net::CloudVmNetConfig()},
                     {net::kGcAus, net::CloudVmNetConfig()}});
  PrintProbeMatrices(
      page, probe, {"US", "EU", "ASIA", "AUS"}, {0, 1, 2, 3}, {0, 1, 2, 3},
      "Table 3a: single-stream TCP throughput between GC zones (Gb/s)",
      "Table 3b: ICMP latency between GC zones (ms)");
  ComparisonTable anchors("Table 3 anchor checks");
  anchors.Add("US local", "Gb/s", 6.9, BytesPerSecToGbps(probe.Iperf(0, 0)),
              kCal);
  anchors.Add("US->EU", "Mb/s", 210, BytesPerSecToMbps(probe.Iperf(0, 1)),
              kCal);
  anchors.Add("EU->ASIA", "Mb/s", 80, BytesPerSecToMbps(probe.Iperf(1, 2)),
              kCal);
  anchors.Add("EU->ASIA", "ping ms", 270, probe.PingMs(1, 2), kCal);
  page.Print(anchors);
}

void Table4(Page& page) {
  Probe probe(page, {{net::kGcUs, net::CloudVmNetConfig()},
                     {net::kAwsUsWest, net::CloudVmNetConfig()},
                     {net::kAzureUsSouth, net::CloudVmNetConfig()}});
  PrintProbeMatrices(
      page, probe, {"GC", "AWS", "Azure"}, {0, 1, 2}, {0, 1, 2},
      "Table 4a: single-stream TCP throughput between clouds (Gb/s)",
      "Table 4b: ICMP latency between clouds (ms)");
  ComparisonTable anchors("Table 4 anchor checks");
  anchors.Add("GC intra", "Gb/s", 6.4, BytesPerSecToGbps(probe.Iperf(0, 0)),
              kCal);
  anchors.Add("GC->AWS", "Gb/s", 1.65, BytesPerSecToGbps(probe.Iperf(0, 1)),
              kCal);
  anchors.Add("GC->AWS", "ping ms", 15.3, probe.PingMs(0, 1), kCal);
  anchors.Add("GC->Azure", "Gb/s", 0.5, BytesPerSecToGbps(probe.Iperf(0, 2)),
              kCal);
  anchors.Add("GC->Azure", "ping ms", 51, probe.PingMs(0, 2), kCal);
  page.Print(anchors);
}

void Table5(Page& page) {
  Probe probe(page, {{net::kOnPremEu, net::OnPremNetConfig()},
                     {net::kGcEu, net::CloudVmNetConfig()},
                     {net::kGcUs, net::CloudVmNetConfig()},
                     {net::kLambdaUsWest, net::CloudVmNetConfig()}});
  PrintProbeMatrices(
      page, probe, {"on-prem (RTX8000 / DGX-2)", "EU T4", "US T4", "US A10"},
      {0}, {1, 2, 3}, "Table 5a: on-prem single-stream TCP throughput (Gb/s)",
      "Table 5b: on-prem ICMP latency (ms)");
  ComparisonTable anchors("Table 5 anchor checks");
  anchors.Add("on-prem -> EU T4", "Gb/s", 0.50,
              BytesPerSecToGbps(probe.Iperf(0, 1)), kCal);
  anchors.Add("on-prem -> US T4", "Mb/s", 70,
              BytesPerSecToMbps(probe.Iperf(0, 2)), kCal);
  anchors.Add("on-prem -> US T4", "ping ms", 150.5, probe.PingMs(0, 2), kCal);
  anchors.Add("on-prem -> US A10", "ping ms", 158.8, probe.PingMs(0, 3),
              kCal);
  page.Print(anchors);
}

// --- Figs. 7-12: geo-distributed and multi-cloud ----------------------

void Fig7(Page& page) {
  auto run = [&](std::string_view experiment, ModelId model)
      -> const RunStats& { return page.Cell(0, experiment, model).train; };
  page.Heading("Table 2 (A rows) + Fig. 7: intra-zone scalability");
  TableWriter table({"Exp", "VMs", "CV SPS", "CV gran", "CV speedup",
                     "NLP SPS", "NLP gran", "NLP speedup"});
  for (const NamedExperiment& experiment : core::ASeries()) {
    if (experiment.name == "A-1") {
      // The A-1 bar is the plain single-GPU baseline (no Hivemind).
      table.AddRow({experiment.name, "1", StrFormat("%.1f", kT4ConvSps), "-",
                    "1.00x", StrFormat("%.1f", kT4RxlmSps), "-", "1.00x"});
      continue;
    }
    const RunStats& cv = run(experiment.name, kConv);
    const RunStats& nlp = run(experiment.name, kRxlm);
    table.AddRow({experiment.name,
                  StrFormat("%d", experiment.cluster.TotalVms()),
                  StrFormat("%.1f", cv.throughput_sps),
                  StrFormat("%.2f", cv.granularity),
                  StrFormat("%.2fx", cv.throughput_sps / kT4ConvSps),
                  StrFormat("%.1f", nlp.throughput_sps),
                  StrFormat("%.2f", nlp.granularity),
                  StrFormat("%.2fx", nlp.throughput_sps / kT4RxlmSps)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 7 anchors");
  anchors.Add("A-2 NLP", "SPS", 211.4, run("A-2", kRxlm).throughput_sps,
              kOut);
  const RunStats& a8_cv = run("A-8", kConv);
  anchors.Add("A-8 CV", "SPS", 261.9, a8_cv.throughput_sps, kOut);
  anchors.Add("A-8 CV", "speedup", 3.2, a8_cv.throughput_sps / kT4ConvSps,
              kOut);
  anchors.Add("A-8 CV", "granularity", 5.19, a8_cv.granularity, kOut);
  const RunStats& a8_nlp = run("A-8", kRxlm);
  anchors.Add("A-8 NLP", "SPS", 575.1, a8_nlp.throughput_sps, kCal);
  anchors.Add("A-8 NLP", "speedup", 2.75, a8_nlp.throughput_sps / kT4RxlmSps,
              kOut);
  anchors.Add("A-8 NLP", "granularity", 1.15, a8_nlp.granularity, kOut);
  page.Print(anchors);
}

void Fig8(Page& page) {
  auto run = [&](std::string_view experiment, ModelId model)
      -> const RunStats& { return page.Cell(0, experiment, model).train; };
  page.Heading("Fig. 8: transatlantic (B) vs intra-zone (A)");
  TableWriter table({"Exp", "CV SPS", "CV gran", "NLP SPS", "NLP gran",
                     "NLP vs A (%)"});
  for (const NamedExperiment& b : core::BSeries()) {
    // Compared with the A experiment of the same VM count.
    const std::string a = StrCat("A-", b.cluster.TotalVms());
    const RunStats& cv = run(b.name, kConv);
    const RunStats& nlp = run(b.name, kRxlm);
    table.AddRow(
        {b.name, StrFormat("%.1f", cv.throughput_sps),
         StrFormat("%.2f", cv.granularity),
         StrFormat("%.1f", nlp.throughput_sps),
         StrFormat("%.2f", nlp.granularity),
         Percent(nlp.throughput_sps / run(a, kRxlm).throughput_sps)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 8 anchors");
  anchors.Add("B-2 CV", "SPS (vs A-2's 70.1)", 68.4,
              run("B-2", kConv).throughput_sps, kOut);
  const RunStats& b2_nlp = run("B-2", kRxlm);
  anchors.Add("B-2 NLP", "SPS", 177.3, b2_nlp.throughput_sps, kOut);
  anchors.Add("B-2 NLP", "granularity", 2.21, b2_nlp.granularity, kOut);
  anchors.Add("B-4 CV", "SPS (3% below A-4's 140.4)", 135.8,
              run("B-4", kConv).throughput_sps, kOut);
  anchors.Add("B-8 CV", "speedup vs A-1", 3.2 * 0.98,
              run("B-8", kConv).throughput_sps / kT4ConvSps, kOut);
  anchors.Add("B-8 NLP", "speedup vs A-1", 2.15,
              run("B-8", kRxlm).throughput_sps / kT4RxlmSps, kOut);
  page.Print(anchors);
}

void Fig9(Page& page) {
  auto run = [&](std::string_view experiment, ModelId model)
      -> const RunStats& { return page.Cell(0, experiment, model).train; };
  page.Heading("Fig. 9: intercontinental (C) vs intra-zone (A)");
  TableWriter table({"Exp", "CV SPS", "CV vs A", "NLP SPS", "NLP vs A",
                     "NLP gran", "Peak egress (max VM)"});
  for (const NamedExperiment& c : core::CSeries()) {
    // Compared with the A experiment of the same VM count.
    const std::string a = StrCat("A-", c.cluster.TotalVms());
    const RunStats& cv = run(c.name, kConv);
    const core::ExperimentResult& nlp = page.Cell(0, c.name, kRxlm);
    double peak = 0;
    for (double p : nlp.peak_egress_bps) peak = std::max(peak, p);
    table.AddRow(
        {c.name, StrFormat("%.1f", cv.throughput_sps),
         Percent(cv.throughput_sps / run(a, kConv).throughput_sps),
         StrFormat("%.1f", nlp.train.throughput_sps),
         Percent(nlp.train.throughput_sps / run(a, kRxlm).throughput_sps),
         StrFormat("%.2f", nlp.train.granularity), FormatRate(peak)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 9 anchors");
  // C-3 vs A-3: CV only 5% slower, NLP -34%.
  anchors.Add("C-3 CV", "relative to A-3", 0.95,
              run("C-3", kConv).throughput_sps /
                  run("A-3", kConv).throughput_sps,
              kOut);
  anchors.Add("C-3 NLP", "relative to A-3", 0.66,
              run("C-3", kRxlm).throughput_sps /
                  run("A-3", kRxlm).throughput_sps,
              kOut);
  // C-8: CV -7% (speedup 3.02x), NLP -41%, granularities 3.33 / 0.4.
  const RunStats& c8_cv = run("C-8", kConv);
  anchors.Add("C-8 CV", "speedup vs A-1", 3.02,
              c8_cv.throughput_sps / kT4ConvSps, kOut);
  anchors.Add("C-8 CV", "granularity", 3.33, c8_cv.granularity, kOut);
  const RunStats& c8_nlp = run("C-8", kRxlm);
  anchors.Add("C-8 NLP", "relative to A-8", 0.59,
              c8_nlp.throughput_sps / run("A-8", kRxlm).throughput_sps,
              kOut);
  anchors.Add("C-8 NLP", "granularity", 0.4, c8_nlp.granularity, kOut);
  page.Print(anchors);
}

void Fig10(Page& page) {
  auto run = [&](std::string_view experiment, ModelId model)
      -> const RunStats& { return page.Cell(0, experiment, model).train; };
  page.Heading("Fig. 10: multi-cloud throughput and granularity");
  TableWriter table({"Exp", "Fleet", "CV SPS", "CV gran", "NLP SPS",
                     "NLP gran"});
  const char* fleets[] = {"4x GC", "2x GC + 2x AWS", "2x GC + 2x Azure"};
  const std::vector<NamedExperiment> series = core::DSeries();
  for (size_t i = 0; i < series.size(); ++i) {
    const RunStats& cv = run(series[i].name, kConv);
    const RunStats& nlp = run(series[i].name, kRxlm);
    table.AddRow({series[i].name, fleets[i],
                  StrFormat("%.1f", cv.throughput_sps),
                  StrFormat("%.2f", cv.granularity),
                  StrFormat("%.1f", nlp.throughput_sps),
                  StrFormat("%.2f", nlp.granularity)});
  }
  page.Print(table);

  ComparisonTable anchors("Fig. 10 anchors");
  anchors.Add("D-1 CV", "granularity", 14.48, run("D-1", kConv).granularity,
              kOut);
  anchors.Add("D-3 CV", "granularity", 12.72, run("D-3", kConv).granularity,
              kOut);
  anchors.Add("D-1 NLP", "granularity", 2.73, run("D-1", kRxlm).granularity,
              kOut);
  anchors.Add("D-3 NLP", "granularity", 1.99, run("D-3", kRxlm).granularity,
              kOut);
  // "Actual throughput was between 1-2% slower than the baseline."
  anchors.Add("D-3 CV", "relative to D-1", 0.985,
              run("D-3", kConv).throughput_sps /
                  run("D-1", kConv).throughput_sps,
              kOut);
  anchors.Add("D-2 NLP", "relative to D-1", 1.0,
              run("D-2", kRxlm).throughput_sps /
                  run("D-1", kRxlm).throughput_sps,
              kOut);
  page.Print(anchors);
}

/// `total` spread over `vm_hours` (VMs x hours).
cloud::CostBreakdown PerVmHour(cloud::CostBreakdown total, double vm_hours) {
  total.instance /= vm_hours;
  total.internal_egress /= vm_hours;
  total.external_egress /= vm_hours;
  total.data_loading /= vm_hours;
  return total;
}

/// Per-VM hourly breakdown averaged over the VMs of one provider.
cloud::CostBreakdown PerVmHourly(const core::ExperimentResult& result,
                                 net::Provider provider) {
  cloud::CostBreakdown total;
  int count = 0;
  for (const cloud::VmUsage& usage : result.usages) {
    if (usage.site.provider != provider) continue;
    total += cloud::PriceVm(usage);
    ++count;
  }
  return count > 0 ? PerVmHour(total, count * Hours(result)) : total;
}

/// Reprices a usage under a different provider's instance + egress rates
/// (the paper's C-8 what-if analysis).
cloud::CostBreakdown RepriceAs(cloud::VmUsage usage, cloud::VmTypeId vm_type) {
  const net::Provider provider = cloud::GetVmType(vm_type).provider;
  usage.type = vm_type;
  usage.site.provider = provider;
  for (auto& [dst, bytes] : usage.egress_bytes_by_dst) {
    if (dst.provider != net::Provider::kOnPremise) {
      dst.provider = provider;  // Whole fleet moves to that provider.
    }
  }
  return cloud::PriceVm(usage);
}

void AddBreakdownRow(TableWriter& table, const std::string& label,
                     const cloud::CostBreakdown& c) {
  table.AddRow({label, StrFormat("%.3f", c.instance),
                StrFormat("%.3f", c.internal_egress),
                StrFormat("%.3f", c.external_egress),
                StrFormat("%.3f", c.data_loading),
                StrFormat("%.3f", c.Total())});
}

void Fig11(Page& page) {
  page.Heading("Fig. 11a: D-2 / D-3 per-VM hourly cost breakdown ($/h)");
  TableWriter table({"Experiment / provider", "Instance", "Egress (int)",
                     "Egress (ext)", "Data (B2)", "Total"});
  for (ModelId model : {kConv, kRxlm}) {
    const char* domain = model == kConv ? "CV" : "NLP";
    const core::ExperimentResult& d2 = page.Cell(0, "D-2", model);
    AddBreakdownRow(table, StrCat("D-2 ", domain, " / GC"),
                    PerVmHourly(d2, net::Provider::kGoogleCloud));
    AddBreakdownRow(table, StrCat("D-2 ", domain, " / AWS"),
                    PerVmHourly(d2, net::Provider::kAws));
    const core::ExperimentResult& d3 = page.Cell(0, "D-3", model);
    AddBreakdownRow(table, StrCat("D-3 ", domain, " / GC"),
                    PerVmHourly(d3, net::Provider::kGoogleCloud));
    AddBreakdownRow(table, StrCat("D-3 ", domain, " / Azure"),
                    PerVmHourly(d3, net::Provider::kAzure));
    table.AddSeparator();
  }
  page.Print(table);

  page.Heading(
      "Fig. 11b: C-8 NLP per-VM hourly cost under each provider ($/h)");
  const core::ExperimentResult& c8 = page.Cell(0, "C-8", kRxlm);
  TableWriter c8_table({"Provider", "Instance", "Egress (int)",
                        "Egress (ext)", "Data (B2)", "Total"});
  const struct {
    const char* name;
    cloud::VmTypeId type;
  } providers[] = {{"GC", cloud::VmTypeId::kGcT4},
                   {"AWS", cloud::VmTypeId::kAwsT4},
                   {"Azure", cloud::VmTypeId::kAzureT4}};
  cloud::CostBreakdown per_provider[3];
  for (int p = 0; p < 3; ++p) {
    cloud::CostBreakdown sum;
    for (const cloud::VmUsage& usage : c8.usages) {
      sum += RepriceAs(usage, providers[p].type);
    }
    per_provider[p] = PerVmHour(sum, c8.usages.size() * Hours(c8));
    AddBreakdownRow(c8_table, providers[p].name, per_provider[p]);
  }
  page.Print(c8_table);

  ComparisonTable anchors("Fig. 11 anchors");
  anchors.Add("CV data loading", "$/h per VM", 0.144,
              PerVmHourly(page.Cell(0, "D-2", kConv),
                          net::Provider::kGoogleCloud)
                  .data_loading,
              kOut);
  anchors.Add("NLP data loading", "$/h per VM", 0.083,
              PerVmHourly(page.Cell(0, "D-2", kRxlm),
                          net::Provider::kGoogleCloud)
                  .data_loading,
              kCal);
  anchors.Add("C-8 NLP / GC", "external egress $/h", 4.329,
              per_provider[0].external_egress, kOut);
  anchors.Add("C-8 NLP / GC", "total $/h", 4.804, per_provider[0].Total(),
              kOut);
  anchors.Add("C-8 NLP / AWS", "total $/h", 1.376, per_provider[1].Total(),
              kOut);
  anchors.Add("C-8 NLP / Azure", "total $/h", 2.101, per_provider[2].Total(),
              kOut);
  page.Print(anchors);
  page.out() << "GC external egress share of total: "
             << StrFormat("%.0f%%", per_provider[0].external_egress /
                                        per_provider[0].Total() * 100)
             << " (paper: >90%)\n";
}

void Fig12(Page& page) {
  auto egress_mbps = [&](ModelId model, int gpus) {
    const core::ExperimentResult& result =
        page.Cell(0, StrCat(gpus, "xA10"), model);
    double sum = 0;
    for (double rate : result.avg_egress_bps) sum += rate;
    return BytesPerSecToMbps(sum / result.avg_egress_bps.size());
  };
  page.Heading("Fig. 12: average per-VM egress rate on 2-8 A10 GPUs (Mb/s)");
  TableWriter table({"Model", "2 GPUs", "4 GPUs", "8 GPUs"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    table.AddRow({std::string(models::ModelName(model)),
                  StrFormat("%.1f", egress_mbps(model, 2)),
                  StrFormat("%.1f", egress_mbps(model, 4)),
                  StrFormat("%.1f", egress_mbps(model, 8))});
  }
  page.Print(table);

  ComparisonTable checks("Fig. 12 shape checks");
  // The trend: smaller model => lower egress rate, at every GPU count.
  for (int gpus : {2, 4, 8}) {
    checks.AddSimulatedOnly(StrFormat("RN18 vs RN50 @%d GPUs", gpus),
                            "egress ratio (<1)",
                            egress_mbps(ModelId::kResNet18, gpus) /
                                egress_mbps(ModelId::kResNet50, gpus));
    checks.AddSimulatedOnly(StrFormat("RN18 vs RXLM @%d GPUs", gpus),
                            "egress ratio (<1)",
                            egress_mbps(ModelId::kResNet18, gpus) /
                                egress_mbps(kRxlm, gpus));
  }
  page.Print(checks);
}

// --- Figs. 13-17: hybrid cloud, cost maps, Whisper ---------------------

void Fig13(Page& page) {
  // The RTX8000's own throughputs (Table 6).
  PrintHybridSeries(
      page, core::ESeries, kConv,
      "Fig. 13 (CV): RTX8000 + cloud GPUs, throughput and granularity",
      "vs RTX8000 baseline", 194.8);
  PrintHybridSeries(
      page, core::ESeries, kRxlm,
      "Fig. 13 (NLP): RTX8000 + cloud GPUs, throughput and granularity",
      "vs RTX8000 baseline", 431.8);

  ComparisonTable table("Table 6: hybrid vs cloud-only throughput (SPS)");
  const struct {
    ModelId model;
    const char* name;
    double ea8, eb8, ec8, t4x8, a10x8;
  } rows[] = {
      {kConv, "CONV", 316.8, 283.5, 429.3, 261.9, 620.6},
      {kRxlm, "RXLM", 556.7, 330.6, 223.7, 575.1, 1059.9},
  };
  for (const auto& row : rows) {
    auto sps = [&](std::string_view fleet) {
      return page.Cell(0, fleet, row.model).train.throughput_sps;
    };
    table.Add(StrCat(row.name, " E-A-8"), "SPS", row.ea8, sps("E-A-8"), kOut);
    table.Add(StrCat(row.name, " E-B-8"), "SPS", row.eb8, sps("E-B-8"), kOut);
    table.Add(StrCat(row.name, " E-C-8"), "SPS", row.ec8, sps("E-C-8"), kOut);
    // RXLM on 8xT4 is the calibrated A-8 NLP number.
    table.Add(StrCat(row.name, " 8xT4"), "SPS", row.t4x8, sps("8xT4"),
              row.model == kRxlm ? kCal : kOut);
    table.Add(StrCat(row.name, " 8xA10"), "SPS", row.a10x8, sps("8xA10"),
              kOut);
  }
  page.Print(table);
  page.out() << "Paper conclusion check: the 8xA10 cloud-only fleet beats "
                "every hybrid setup for both models.\n";
}

void Fig14(Page& page) {
  const double cv_baseline =
      page.Value(core::RunCentralizedBaseline(cloud::VmTypeId::kOnPremDgx2,
                                              kConv))
          .throughput_sps;
  const double nlp_baseline =
      page.Value(core::RunCentralizedBaseline(cloud::VmTypeId::kOnPremDgx2,
                                              kRxlm))
          .throughput_sps;
  auto series = [&](ModelId model, const char* domain, double baseline) {
    PrintHybridSeries(page, core::FSeries, model,
                      StrCat("Fig. 14 (", domain,
                             "): DGX-2 + cloud GPUs (baseline ",
                             StrFormat("%.0f", baseline), " SPS)"),
                      "vs DGX-2 DDP baseline", baseline);
  };
  series(kConv, "CV", cv_baseline);
  series(kRxlm, "NLP", nlp_baseline);

  ComparisonTable anchors("Fig. 14 anchors");
  anchors.Add("DGX-2 CV baseline", "SPS", 413, cv_baseline, kCal);
  anchors.Add("DGX-2 NLP baseline", "SPS", 1811, nlp_baseline, kCal);
  const RunStats& fa8 = page.Cell(0, "F-A-8", kConv).train;
  anchors.Add("F-A-8 CV", "SPS", 507, fa8.throughput_sps, kOut);
  anchors.Add("F-A-8 CV", "granularity", 2.46, fa8.granularity, kOut);
  const RunStats& fc8 = page.Cell(0, "F-C-8", kConv).train;
  anchors.Add("F-C-8 CV", "SPS", 510, fc8.throughput_sps, kOut);
  anchors.Add("F-C-8 CV", "granularity", 0.57, fc8.granularity, kOut);
  anchors.AddSimulatedOnly(
      "F-B-8 NLP (never reaches baseline)", "fraction of DGX-2",
      page.Cell(0, "F-B-8", kRxlm).train.throughput_sps / nlp_baseline);
  page.Print(anchors);
}

void Fig15(Page& page) {
  ComparisonTable sps("Fig. 15 - RoBERTa-XLM throughput (SPS)");
  ComparisonTable cost(
      "Fig. 15 - RoBERTa-XLM cost per 1M samples ($, spot, excl. data)");
  const core::CentralizedResult dgx = page.Value(
      core::RunCentralizedBaseline(cloud::VmTypeId::kGcDgx2, kRxlm));
  sps.Add("DGX-2 (8xV100)", "SPS", 1811, dgx.throughput_sps, kCal);
  cost.Add("DGX-2 (8xV100)", "$/1M", 0.97, dgx.spot_cost_per_million, kCal);
  const core::ExperimentResult& t4 = page.Cell(0, "8xT4", kRxlm);
  // The calibrated A-8 NLP number.
  sps.Add("8xT4 Hivemind", "SPS", 575.1, t4.train.throughput_sps, kCal);
  sps.AddSimulatedOnly("8xT4 Hivemind", "granularity", t4.train.granularity);
  cost.AddSimulatedOnly("8xT4 Hivemind", "$/1M",
                        t4.cost_per_million_excl_data);
  const core::ExperimentResult& a10 = page.Cell(0, "8xA10", kRxlm);
  sps.Add("8xA10 Hivemind", "SPS", 1059.9, a10.train.throughput_sps, kOut);
  cost.AddSimulatedOnly("8xA10 Hivemind", "$/1M",
                        a10.cost_per_million_excl_data);
  page.Print(sps);
  page.Print(cost);

  page.out() << "Claim checks (Fig. 15):\n"
             << "  DGX-2 fastest:            "
             << YesNo(dgx.throughput_sps > a10.train.throughput_sps)
             << "\n  DGX-2 cheapest per 1M:    "
             << YesNo(dgx.spot_cost_per_million <
                          a10.cost_per_million_excl_data &&
                      dgx.spot_cost_per_million <
                          t4.cost_per_million_excl_data)
             << "\n  8xT4 worst value (egress): "
             << YesNo(t4.cost_per_million_excl_data >
                      a10.cost_per_million_excl_data)
             << "\n  8xT4 internal egress > half its bill: "
             << YesNo(t4.fleet_cost.internal_egress >
                      0.5 * (t4.fleet_cost.Total() -
                             t4.fleet_cost.data_loading))
             << "\n";
}

void Fig16(Page& page) {
  constexpr double kBaseline = 12.7;  // WhisperSmall on one T4 (Section 11).
  auto run = [&](size_t spec, ModelId model, int vms, int tbs)
      -> const RunStats& {
    return page.Cell(spec, StrCat(vms, "xT4"), model, tbs).train;
  };
  page.Heading("Fig. 16: WhisperSmall on GC T4s with growing TBS");
  TableWriter table({"TBS", "GPUs", "SPS", "Granularity", "Speedup"});
  for (int tbs : {256, 512, 1024}) {
    for (int vms : {2, 4, 8}) {
      const RunStats& r = run(0, kWhisper, vms, tbs);
      table.AddRow({StrFormat("%d", tbs), StrFormat("%d", vms),
                    StrFormat("%.1f", r.throughput_sps),
                    StrFormat("%.2f", r.granularity),
                    StrFormat("%.2fx", r.throughput_sps / kBaseline)});
    }
    table.AddSeparator();
  }
  page.Print(table);

  page.Heading(
      "Section 11: granularity of all Whisper sizes at the original TBS");
  TableWriter sizes({"Model", "Granularity @ TBS 256, 8xT4"});
  for (ModelId model : models::AsrModels()) {
    sizes.AddRow({std::string(models::ModelName(model)),
                  StrFormat("%.2f", run(1, model, 8, 256).granularity)});
  }
  page.Print(sizes);

  ComparisonTable anchors("Fig. 16 anchors");
  const double sps_1024 = run(0, kWhisper, 8, 1024).throughput_sps;
  anchors.Add("8xT4 @ TBS 1024", "SPS", 28, sps_1024, kOut);
  anchors.Add("8xT4 @ TBS 1024", "speedup", 2.2, sps_1024 / kBaseline, kOut);
  anchors.Add("8xT4 @ TBS 512", "speedup", 1.27,
              run(0, kWhisper, 8, 512).throughput_sps / kBaseline, kOut);
  anchors.Add("2xT4 @ TBS 256", "granularity", 1.8,
              run(0, kWhisper, 2, 256).granularity, kOut);
  page.Print(anchors);
}

void Fig17(Page& page) {
  ComparisonTable sps("Fig. 17 - WhisperSmall throughput (SPS)");
  ComparisonTable cost(
      "Fig. 17 - WhisperSmall cost per 1M samples ($, spot, excl. data)");
  const core::CentralizedResult a100 = page.Value(
      core::RunCentralizedBaseline(cloud::VmTypeId::kGcA100, kWhisper));
  sps.Add("A100 80GB", "SPS", 46, a100.throughput_sps, kCal);
  cost.Add("A100 80GB", "$/1M", 12.19, a100.spot_cost_per_million, kOut);
  const core::CentralizedResult ddp = page.Value(
      core::RunCentralizedBaseline(cloud::VmTypeId::kGc4xT4, kWhisper));
  sps.Add("4xT4 DDP", "SPS", 24, ddp.throughput_sps, kCal);
  cost.Add("4xT4 DDP", "$/1M", 8.41, ddp.spot_cost_per_million, kOut);

  const core::ExperimentResult& hm = page.Cell(0, "8xT4", kWhisper, 1024);
  sps.Add("8xT4 Hivemind @1024", "SPS", 28, hm.train.throughput_sps, kOut);
  // Two accountings: full traffic metering (every intra-zone gradient
  // byte at the $0.01/GB inter-zone rate — Whisper's 33 s epochs move a
  // lot of them), and the paper's approximation, which reused the
  // per-VM egress reference from the 4-peer D experiments (close to
  // instance-only for this fleet).
  cost.Add("8xT4 @1024 (full egress metering)", "$/1M", 14.53,
           hm.cost_per_million_excl_data, kOut);
  cost.Add("8xT4 @1024 (instance only)", "$/1M", 14.53,
           cloud::CostPerMillionSamples(hm.fleet_cost.instance / Hours(hm),
                                        hm.train.throughput_sps),
           kOut);
  page.Print(sps);
  page.Print(cost);

  page.out() << "Claim checks (Fig. 17):\n"
             << "  A100 fastest:                "
             << YesNo(a100.throughput_sps > hm.train.throughput_sps &&
                      a100.throughput_sps > ddp.throughput_sps)
             << "\n  4xT4 DDP cheapest per 1M:    "
             << YesNo(ddp.spot_cost_per_million <
                          a100.spot_cost_per_million &&
                      ddp.spot_cost_per_million <
                          hm.cost_per_million_excl_data)
             << "\n  8xT4 faster than 4xT4 DDP:   "
             << YesNo(hm.train.throughput_sps > ddp.throughput_sps)
             << "\n  low granularity caps further scaling (paper: 1.17): "
             << YesNo(hm.train.granularity < 2.5) << "\n";
}

// --- Section 7 and the ablations (DESIGN.md) --------------------------

void Sec7Multistream(Page& page) {
  // One stream is window/RTT-capped; with 80 the physical paths saturate.
  // Every measurement gets a fresh world.
  auto mbps = [&](net::SiteId to, int streams) {
    Probe probe(page, {{net::kOnPremEu, net::OnPremNetConfig()},
                       {to, net::CloudVmNetConfig()}});
    return BytesPerSecToMbps(probe.Iperf(0, 1, streams));
  };
  page.Heading(
      "Section 7: multi-stream TCP bandwidth from the on-prem host (Mb/s)");
  TableWriter table({"Streams", "to EU (GC)", "to US (GC)"});
  for (int streams : {1, 2, 4, 8, 16, 40, 80}) {
    table.AddRow({StrFormat("%d", streams),
                  StrFormat("%.0f", mbps(net::kGcEu, streams)),
                  StrFormat("%.0f", mbps(net::kGcUs, streams))});
  }
  page.Print(table);

  ComparisonTable anchors("Section 7 anchors");
  anchors.Add("1 stream to EU", "Mb/s", 500, mbps(net::kGcEu, 1), kCal);
  anchors.Add("1 stream to US", "Mb/s", 65, mbps(net::kGcUs, 1), kCal);
  anchors.Add("80 streams to EU", "Mb/s", 6000, mbps(net::kGcEu, 80), kOut);
  anchors.Add("80 streams to US", "Mb/s", 4000, mbps(net::kGcUs, 80), kOut);
  page.Print(anchors);

  // What the insight buys end to end: giving Hivemind multiple TCP
  // streams per gradient transfer on the B-2 transatlantic NLP run.
  page.Heading("Training-level effect: B-2 NLP with N streams per transfer");
  TableWriter training({"Streams/transfer", "SPS", "Comm (s)"});
  for (size_t i = 0; i < std::size(kTransferStreams); ++i) {
    const RunStats& r = page.Cell(i, "B-2", kRxlm).train;
    training.AddRow({StrFormat("%d", kTransferStreams[i]),
                     StrFormat("%.1f", r.throughput_sps),
                     StrFormat("%.1f", r.avg_comm_sec)});
  }
  page.Print(training);
  page.out() << "Hivemind itself runs one stream per peer pair (row 1); "
                "the paper's Section 7 points at rows 2+ as the fix.\n";
}

void Sec7Spot(Page& page) {
  // Each interruption costs the lost accumulation, the replacement's
  // startup (45-600 s) and two hivemind epochs of state sync; the paper's
  // rule of thumb is "a 5% interruption frequency ... means roughly a 5%
  // slower training".
  page.Heading(
      "Section 7: throughput under spot interruptions (8xT4, CV, 24h)");
  const double baseline =
      page.Cell(0, "8xT4", kConv, 32768, 7, SpotLabel(0))
          .train.throughput_sps;
  TableWriter table({"Monthly interruption rate", "Interruptions/24h",
                     "SPS", "Penalty vs uninterrupted"});
  table.AddRow({"0% (measurement mode)", "0",
                StrFormat("%.1f", baseline), "0%"});
  constexpr int kSeeds = static_cast<int>(std::size(kSpotSeeds));
  for (double rate : kSpotRates) {
    double sps = 0;
    int interruptions = 0;
    for (uint64_t seed : kSpotSeeds) {
      const core::ExperimentResult& r = page.Cell(
          1, "8xT4", kConv, 32768, seed, SpotLabel(rate));
      sps += r.train.throughput_sps / kSeeds;
      interruptions += r.spot_interruptions;
    }
    table.AddRow(
        {StrFormat("%.0f%%", rate * 100),
         StrFormat("%.1f", static_cast<double>(interruptions) / kSeeds),
         StrFormat("%.1f", sps),
         StrFormat("%.1f%%", (1.0 - sps / baseline) * 100)});
  }
  page.Print(table);
  page.out() << "Paper rule of thumb: the penalty tracks the fraction of "
                "fleet-time lost to interruptions.\n";
}

void AblationAllreduce(Page& page) {
  page.Heading("Ablation: averaging strategy on geo-distributed fleets (NLP)");
  TableWriter table({"Fleet", "Strategy", "SPS", "Ext. egress cost ($/h)"});
  auto egress_per_hour = [](const core::ExperimentResult& r) {
    return r.fleet_cost.external_egress / Hours(r);
  };
  for (const auto& [fleet, label] :
       {std::pair("B-8", "B-8 (4 US + 4 EU)"),
        std::pair("C-8", "C-8 (2 per continent)")}) {
    for (size_t i = 0; i < std::size(kStrategies); ++i) {
      const core::ExperimentResult& r = page.Cell(i, fleet, kRxlm);
      table.AddRow(
          {label, std::string(collective::StrategyName(kStrategies[i])),
           StrFormat("%.1f", r.train.throughput_sps),
           StrFormat("%.2f", egress_per_hour(r))});
    }
    table.AddSeparator();
  }
  page.Print(table);

  const core::ExperimentResult& flat = page.Cell(1, "C-8", kRxlm);
  const core::ExperimentResult& hier = page.Cell(2, "C-8", kRxlm);
  page.out() << StrFormat(
      "C-8 hierarchical vs flat: %.1fx the throughput at %.1fx the "
      "cross-continent egress cost.\n",
      hier.train.throughput_sps / flat.train.throughput_sps,
      egress_per_hour(hier) / egress_per_hour(flat));
}

void AblationDpu(Page& page) {
  // With DPU the CPU-side optimizer apply overlaps the next epoch's
  // compute; without it the apply lands on the critical path.
  page.Heading("Ablation: delayed parameter updates (8xT4)");
  TableWriter table(
      {"Model", "DPU", "SPS", "Comm (s)", "Granularity", "Speed gain"});
  for (ModelId model : models::SuitabilityStudyModels()) {
    const std::string name(models::ModelName(model));
    const RunStats& off = page.Cell(0, "8xT4", model).train;
    const RunStats& on = page.Cell(1, "8xT4", model).train;
    table.AddRow({name, "off", StrFormat("%.1f", off.throughput_sps),
                  StrFormat("%.1f", off.avg_comm_sec),
                  StrFormat("%.2f", off.granularity), "-"});
    table.AddRow(
        {name, "on", StrFormat("%.1f", on.throughput_sps),
         StrFormat("%.1f", on.avg_comm_sec), StrFormat("%.2f", on.granularity),
         StrFormat("%+.1f%%",
                   (on.throughput_sps / off.throughput_sps - 1.0) * 100)});
    table.AddSeparator();
  }
  page.Print(table);
  page.out() << "DPU matters most for the largest models (biggest CPU "
                "apply) and low-granularity tasks.\n";
}

void AblationCompression(Page& page) {
  // The paper names "better compression" as the lever for further
  // communication-time improvements (Section 10).
  page.Heading("Ablation: gradient compression tiers (RoBERTa-XLM)");
  TableWriter table({"Fleet", "Payload", "SPS", "Egress cost ($/h)"});
  auto egress_per_hour = [](const core::ExperimentResult& r) {
    return (r.fleet_cost.internal_egress + r.fleet_cost.external_egress) /
           Hours(r);
  };
  for (const auto& [fleet, label] :
       {std::pair("A-8", "A-8 (intra-zone)"),
        std::pair("B-2", "B-2 (transatlantic)"),
        std::pair("C-8", "C-8 (4 continents)")}) {
    for (size_t i = 0; i < std::size(kCompressions); ++i) {
      const core::ExperimentResult& r = page.Cell(i, fleet, kRxlm);
      table.AddRow(
          {label, std::string(models::CompressionName(kCompressions[i])),
           StrFormat("%.1f", r.train.throughput_sps),
           StrFormat("%.2f", egress_per_hour(r))});
    }
    table.AddSeparator();
  }
  page.Print(table);

  const core::ExperimentResult& fp16 = page.Cell(1, "C-8", kRxlm);
  const core::ExperimentResult& int8 = page.Cell(2, "C-8", kRxlm);
  page.out() << StrFormat(
      "C-8 int8 vs fp16: %+.0f%% throughput at %.0f%% of the egress "
      "bill - the paper's 'better compression' headroom.\n",
      (int8.train.throughput_sps / fp16.train.throughput_sps - 1.0) * 100,
      egress_per_hour(int8) / egress_per_hour(fp16) * 100);
}

void AblationMatchmaking(Page& page) {
  // Small models with small target batch sizes accumulate faster than
  // the group-forming thread keeps up, so epochs stall at the floor.
  page.Heading("Ablation: the 5 s matchmaking floor (2xA10, small models)");
  TableWriter table({"Model", "TBS", "Accum (s)", "Epoch (s)",
                     "Floor-bound?", "SPS"});
  for (ModelId model :
       {ModelId::kResNet18, ModelId::kResNet50, ModelId::kRobertaBase}) {
    for (int tbs : {4096, 8192, 16384, 32768}) {
      const RunStats& r = page.Cell(0, "2xA10", model, tbs).train;
      const bool bound = r.avg_calc_sec < models::MinMatchmakingSec();
      table.AddRow({std::string(models::ModelName(model)),
                    StrFormat("%d", tbs), StrFormat("%.2f", r.avg_calc_sec),
                    StrFormat("%.2f", r.avg_calc_sec + r.avg_comm_sec),
                    bound ? "yes" : "no",
                    StrFormat("%.0f", r.throughput_sps)});
    }
    table.AddSeparator();
  }
  page.Print(table);
  page.out() << "Once accumulation drops below "
             << models::MinMatchmakingSec()
             << " s, raising the TBS is the only way to keep scaling "
                "(Section 3, observation 2).\n";
}

void AblationVariance(Page& page) {
  auto spread_row = [&](const char* label, size_t spec,
                        std::string_view fleet, ModelId model, int tbs) {
    const std::vector<uint64_t> seeds = VarianceSeeds();
    double mean = 0;
    double stddev = 0;
    for (uint64_t seed : seeds) {
      mean += page.Cell(spec, fleet, model, tbs, seed).train.throughput_sps /
              seeds.size();
    }
    for (uint64_t seed : seeds) {
      const double v =
          page.Cell(spec, fleet, model, tbs, seed).train.throughput_sps;
      stddev += (v - mean) * (v - mean) / seeds.size();
    }
    stddev = std::sqrt(stddev);
    const double rel_spread = mean > 0 ? stddev / mean : 0;
    return std::vector<std::string>{label, StrFormat("%.1f", mean),
                                    StrFormat("%.2f", stddev),
                                    StrFormat("%.2f%%", rel_spread * 100)};
  };
  page.Heading("Ablation: run-to-run throughput variance over 8 seeds");
  TableWriter table({"Configuration", "Mean SPS", "Stddev", "Spread"});
  table.AddRow(spread_row("A-8 CV @32K (stable)", 0, "8xT4", kConv, 32768));
  table.AddRow(spread_row("RN18 2xA10 @8K (floor-bound)", 1, "2xA10",
                          ModelId::kResNet18, 8192));
  table.AddRow(spread_row("RN18 2xA10 @32K (recovered)", 1, "2xA10",
                          ModelId::kResNet18, 32768));
  page.Print(table);
  page.out() << "Floor-bound configurations pick up matchmaking jitter "
                "(Section 3, obs. 2); raising the TBS restores "
                "deterministic epochs.\n";
}

}  // namespace

const std::vector<Figure>& Figures() {
  static const auto* const figures = new std::vector<Figure>{
      {"table1", "Table 1: cloud pricing", {}, Table1},
      {"fig1", "Fig. 1: ConvNextLarge cost vs throughput",
       {Grid({T4Fleet(8), A10Fleet(8)}, {kConv})}, Fig1},
      {"fig2", "Fig. 2: Hivemind penalty",
       {Grid({A10Fleet(2)}, models::SuitabilityStudyModels())}, Fig2},
      {"fig3", "Fig. 3: throughput across TBS", {SuitabilityTbsGrid()}, Fig3},
      {"fig4", "Fig. 4: TBS vs granularity", {SuitabilityTbsGrid()}, Fig4},
      {"fig5", "Fig. 5: multi-GPU throughput", {A10ScalingGrid()}, Fig5},
      {"fig6", "Fig. 6: multi-GPU granularity", {A10ScalingGrid()}, Fig6},
      {"table3", "Table 3: GC inter-zone network", {}, Table3},
      {"fig7", "Fig. 7: intra-zone scalability (A)",
       {Grid(Pick(core::ASeries(), {"A-2", "A-3", "A-4", "A-6", "A-8"}),
             {kConv, kRxlm})},
       Fig7},
      {"fig8", "Fig. 8: transatlantic scalability (B)",
       {Grid(Concat({core::BSeries(),
                     Pick(core::ASeries(), {"A-2", "A-4", "A-6", "A-8"})}),
             {kConv, kRxlm})},
       Fig8},
      {"fig9", "Fig. 9: intercontinental scalability (C)",
       {Grid(Concat({core::CSeries(),
                     Pick(core::ASeries(), {"A-3", "A-4", "A-6", "A-8"})}),
             {kConv, kRxlm})},
       Fig9},
      {"table4", "Table 4: multi-cloud network", {}, Table4},
      {"fig10", "Fig. 10: multi-cloud throughput (D)",
       {Grid(core::DSeries(), {kConv, kRxlm})}, Fig10},
      {"fig11", "Fig. 11: cost breakdowns",
       {Grid(Concat({Pick(core::DSeries(), {"D-2", "D-3"}),
                     Pick(core::CSeries(), {"C-8"})}),
             {kConv, kRxlm})},
       Fig11},
      {"fig12", "Fig. 12: egress rates", {A10ScalingGrid()}, Fig12},
      {"table5", "Table 5: hybrid-cloud network", {}, Table5},
      {"fig13", "Fig. 13 + Table 6: consumer-grade hybrid (E)",
       {Grid(Concat({HybridFleets(core::ESeries), {T4Fleet(8), A10Fleet(8)}}),
             {kConv, kRxlm})},
       Fig13},
      {"fig14", "Fig. 14: server-grade hybrid (F)",
       {Grid(HybridFleets(core::FSeries), {kConv, kRxlm})}, Fig14},
      {"fig15", "Fig. 15: RoBERTa-XLM cost vs throughput",
       {Grid({T4Fleet(8), A10Fleet(8)}, {kRxlm})}, Fig15},
      {"fig16", "Fig. 16: WhisperSmall vs TBS",
       {Grid({T4Fleet(2), T4Fleet(4), T4Fleet(8)}, {kWhisper},
             {256, 512, 1024}, 3),
        Grid({T4Fleet(8)}, models::AsrModels(), {256}, 3)},
       Fig16},
      {"fig17", "Fig. 17: WhisperSmall cost vs throughput",
       {Grid({T4Fleet(8)}, {kWhisper}, {1024}, 3)}, Fig17},
      {"sec7_multistream", "Section 7: multi-stream TCP", StreamSpecs(),
       Sec7Multistream},
      {"sec7_spot", "Section 7: spot interruptions", SpotSpecs(), Sec7Spot},
      {"ablation_allreduce", "Ablation: averaging strategy", StrategySpecs(),
       AblationAllreduce},
      {"ablation_dpu", "Ablation: delayed parameter updates", DpuSpecs(),
       AblationDpu},
      {"ablation_compression", "Ablation: gradient compression",
       CompressionSpecs(), AblationCompression},
      {"ablation_matchmaking", "Ablation: matchmaking floor",
       {Grid({A10Fleet(2)},
             {ModelId::kResNet18, ModelId::kResNet50, ModelId::kRobertaBase},
             {4096, 8192, 16384, 32768}, 1)},
       AblationMatchmaking},
      {"ablation_variance", "Ablation: run-to-run variance", VarianceSpecs(),
       AblationVariance},
  };
  return *figures;
}

}  // namespace hivesim::reproduce

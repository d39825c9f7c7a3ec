#include <gtest/gtest.h>

#include <limits>

#include "baselines/baselines.h"
#include "common/units.h"
#include "core/advisor.h"
#include "core/catalog.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/predictor.h"
#include "models/calibration.h"
#include "models/memory.h"
#include "net/profiles.h"
#include "scenario/scenario.h"

namespace hivesim::core {
namespace {

using models::ModelId;

// --- Baselines (linked through core's centralized runner) ---

TEST(BaselinesTest, SingleGpuMatchesCalibration) {
  auto t4 = baselines::SingleGpuThroughput(
      ModelId::kConvNextLarge, compute::GpuModel::kT4,
      compute::HostClass::kGcN1Standard8);
  ASSERT_TRUE(t4.ok());
  EXPECT_DOUBLE_EQ(*t4, 80.0);
}

TEST(BaselinesTest, DgxAnchorsExact) {
  auto cv = RunCentralizedBaseline(cloud::VmTypeId::kOnPremDgx2,
                                   ModelId::kConvNextLarge);
  ASSERT_TRUE(cv.ok());
  EXPECT_DOUBLE_EQ(cv->throughput_sps, 413.0);
  auto nlp = RunCentralizedBaseline(cloud::VmTypeId::kOnPremDgx2,
                                    ModelId::kRobertaXlm);
  ASSERT_TRUE(nlp.ok());
  EXPECT_DOUBLE_EQ(nlp->throughput_sps, 1811.0);
}

/// The best multi-T4 single node on GC: 4xT4 over a shared PCIe fabric.
baselines::DdpNodeConfig FourT4Node(ModelId model) {
  baselines::DdpNodeConfig config;
  config.model = model;
  config.gpu = compute::GpuModel::kT4;
  config.gpu_count = 4;
  config.host = compute::HostClass::kGcN1Standard8;
  return config;
}

TEST(BaselinesTest, FourT4NodeAnchorsAndOom) {
  auto cv =
      baselines::DdpThroughput(FourT4Node(ModelId::kConvNextLarge));
  ASSERT_TRUE(cv.ok());
  EXPECT_DOUBLE_EQ(*cv, 207.0);
  // "The NLP experiments ran OOM" (Section 7).
  auto nlp =
      baselines::DdpThroughput(FourT4Node(ModelId::kRobertaXlm));
  EXPECT_EQ(nlp.status().code(), StatusCode::kOutOfMemory);
  auto whisper =
      baselines::DdpThroughput(FourT4Node(ModelId::kWhisperSmall));
  ASSERT_TRUE(whisper.ok());
  EXPECT_DOUBLE_EQ(*whisper, 24.0);
}

TEST(BaselinesTest, RingModelScalesUnanchoredConfigs) {
  // The interconnect follows the GPU: NVLink (~120 GB/s) inside a V100
  // node, PCIe (~5.4 GB/s, calibrated from the 4xT4 node's 207 SPS)
  // otherwise.
  baselines::DdpNodeConfig four_v100;
  four_v100.model = ModelId::kResNet50;
  four_v100.gpu_count = 4;
  const struct {
    baselines::DdpNodeConfig node;
    double interconnect_bytes_per_sec;
  } cases[] = {{FourT4Node(ModelId::kResNet50), 5.4e9}, {four_v100, 120e9}};
  for (const auto& [node, interconnect_bytes_per_sec] : cases) {
    auto sps = baselines::DdpThroughput(node);
    ASSERT_TRUE(sps.ok());
    // Closed form of synchronous DDP: each microbatch step computes, then
    // ring-all-reduces 2(G-1)/G of the FP32 gradients over the
    // interconnect, with no overlap.
    const double per_gpu =
        models::BaselineSps(node.model, node.gpu).value();
    const double calc_sec = models::DefaultMicrobatch(node.model) / per_gpu;
    const double comm_sec =
        2.0 * (node.gpu_count - 1) / node.gpu_count *
        models::GetModelSpec(node.model).GradientBytesFp32() /
        interconnect_bytes_per_sec;
    EXPECT_DOUBLE_EQ(*sps, node.gpu_count * per_gpu *
                               (calc_sec / (calc_sec + comm_sec)));
    // Sub-linear but positive scaling.
    EXPECT_GT(*sps, per_gpu);                   // Better than one GPU.
    EXPECT_LT(*sps, node.gpu_count * per_gpu);  // Below perfect scaling.
  }
}

// --- Cluster ---

TEST(ClusterTest, ProvisionCreatesNodesAtSites) {
  net::Topology topo = net::StandardWorld();
  ClusterSpec spec;
  spec.groups = {GcT4s(2, net::kGcUs), GcT4s(1, net::kGcEu)};
  auto cluster = Cluster::Provision(&topo, spec);
  ASSERT_TRUE(cluster.ok());
  ASSERT_EQ(cluster->members().size(), 3u);
  EXPECT_EQ(topo.SiteOf(cluster->members()[0].node), net::kGcUs);
  EXPECT_EQ(topo.SiteOf(cluster->members()[2].node), net::kGcEu);
  EXPECT_EQ(spec.TotalVms(), 3);
  EXPECT_EQ(spec.TotalGpus(), 3);
}

TEST(ClusterTest, PeerSpecsCarryVmHardware) {
  net::Topology topo = net::StandardWorld();
  ClusterSpec spec;
  spec.groups = {OnPremDgx2(), LambdaA10s(1)};
  auto cluster = Cluster::Provision(&topo, spec);
  ASSERT_TRUE(cluster.ok());
  auto peers = cluster->PeerSpecs();
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].gpu, compute::GpuModel::kV100);
  EXPECT_EQ(peers[0].gpu_count, 8);
  EXPECT_EQ(peers[1].gpu, compute::GpuModel::kA10);
  EXPECT_EQ(spec.TotalGpus(), 9);
}

TEST(ClusterTest, ProviderSiteMismatchRejected) {
  net::Topology topo = net::StandardWorld();
  ClusterSpec spec;
  spec.groups = {{cloud::VmTypeId::kAwsT4, net::kGcUs, 1, true}};
  EXPECT_FALSE(Cluster::Provision(&topo, spec).ok());
}

TEST(ClusterTest, EmptyAndInvalidSpecsRejected) {
  net::Topology topo = net::StandardWorld();
  EXPECT_FALSE(Cluster::Provision(&topo, ClusterSpec{}).ok());
  ClusterSpec zero;
  zero.groups = {{cloud::VmTypeId::kGcT4, net::kGcUs, 0, true}};
  EXPECT_FALSE(Cluster::Provision(&topo, zero).ok());
}

// --- Catalog (Table 2 and friends) ---

TEST(CatalogTest, ASeriesMatchesTable2) {
  auto series = ASeries();
  ASSERT_EQ(series.size(), 6u);
  EXPECT_EQ(series[0].name, "A-1");
  EXPECT_EQ(series[5].name, "A-8");
  EXPECT_EQ(series[5].cluster.TotalVms(), 8);
  for (const auto& e : series) {
    for (const auto& g : e.cluster.groups) EXPECT_EQ(g.site, net::kGcUs);
  }
}

TEST(CatalogTest, BSeriesSplitsAcrossTheAtlantic) {
  auto series = BSeries();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[3].name, "B-8");
  EXPECT_EQ(series[3].cluster.groups.size(), 2u);
  EXPECT_EQ(series[3].cluster.groups[0].count, 4);
  EXPECT_EQ(series[3].cluster.groups[1].site, net::kGcEu);
}

TEST(CatalogTest, CSeriesCoversFourContinents) {
  auto series = CSeries();
  ASSERT_EQ(series.size(), 4u);
  EXPECT_EQ(series[3].name, "C-8");
  EXPECT_EQ(series[3].cluster.groups.size(), 4u);
  EXPECT_EQ(series[3].cluster.TotalVms(), 8);
  EXPECT_EQ(series[0].cluster.TotalVms(), 3);  // C-3.
}

TEST(CatalogTest, DSeriesMixesProviders) {
  auto series = DSeries();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[1].cluster.groups[1].type, cloud::VmTypeId::kAwsT4);
  EXPECT_EQ(series[2].cluster.groups[1].type, cloud::VmTypeId::kAzureT4);
}

TEST(CatalogTest, HybridSeriesPairOnPremWithCloud) {
  auto e = ESeries(HybridVariant::kUsA10);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[3].name, "E-C-8");
  EXPECT_EQ(e[3].cluster.groups[0].type, cloud::VmTypeId::kOnPremRtx8000);
  EXPECT_EQ(e[3].cluster.groups[1].type, cloud::VmTypeId::kLambdaA10);
  auto f = FSeries(HybridVariant::kEuT4);
  EXPECT_EQ(f[0].name, "F-A-1");
  EXPECT_EQ(f[0].cluster.groups[0].type, cloud::VmTypeId::kOnPremDgx2);
  EXPECT_EQ(f[0].cluster.groups[1].site, net::kGcEu);
}

// --- Experiment runner ---

TEST(ExperimentTest, A8ReproducesPaperRow) {
  ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  auto result = RunHivemindExperiment(ASeries()[5].cluster, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->train.throughput_sps, 261.9, 261.9 * 0.15);
  EXPECT_GT(result->fleet_cost_per_hour, 8 * 0.18);  // Instances + extras.
  // Paper (Fig. 1, instance + egress accounting): $1.77/1M; crucially the
  // fleet must stay cheaper per sample than the DGX-2's $4.24/1M.
  EXPECT_GT(result->cost_per_million_excl_data, 1.0);
  EXPECT_LT(result->cost_per_million_excl_data, 4.24);
  EXPECT_GE(result->cost_per_million, result->cost_per_million_excl_data);
  EXPECT_EQ(result->usages.size(), 8u);
}

TEST(ExperimentTest, EgressCostSplitsInternalExternal) {
  ExperimentConfig config;
  config.model = ModelId::kRobertaXlm;
  auto b2 = RunHivemindExperiment(BSeries()[0].cluster, config);  // B-2.
  ASSERT_TRUE(b2.ok());
  // US <-> EU gradient traffic is intercontinental: external egress.
  EXPECT_GT(b2->fleet_cost.external_egress, 0);
  EXPECT_DOUBLE_EQ(b2->fleet_cost.internal_egress, 0);
  EXPECT_GT(b2->fleet_cost.data_loading, 0);

  auto a2 = RunHivemindExperiment(ASeries()[1].cluster, config);  // A-2.
  ASSERT_TRUE(a2.ok());
  EXPECT_GT(a2->fleet_cost.internal_egress, 0);
  EXPECT_DOUBLE_EQ(a2->fleet_cost.external_egress, 0);
}

// A scenario pack is the only way to arm a world: with one, the trainer
// carries the Section 7 churn hardening and the world owns an armed
// injector whose fingerprint the result reports; without one, neither.
TEST(ExperimentTest, ScenarioPackArmsChaosAndHardensTheTrainer) {
  const ClusterSpec cluster{{GcT4s(2, net::kGcUs), GcT4s(2, net::kGcEu)}};
  ExperimentConfig config;
  config.duration_sec = 0.5 * kHour;

  auto calm = BuildExperimentWorld(cluster, config);
  ASSERT_TRUE(calm.ok()) << calm.status().ToString();
  EXPECT_EQ((*calm)->chaos, nullptr);
  EXPECT_FALSE((*calm)->trainer->config().churn_hardened);
  auto calm_result = CompleteExperiment(**calm, config);
  ASSERT_TRUE(calm_result.ok());
  EXPECT_EQ(calm_result->chaos_fingerprint, 0u);

  auto pack = scenario::BuiltinScenario("partition");
  ASSERT_TRUE(pack.ok());
  auto armed = BuildExperimentWorld(cluster, config, &*pack);
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  ASSERT_NE((*armed)->chaos, nullptr);
  EXPECT_TRUE((*armed)->trainer->config().churn_hardened);
  auto armed_result = CompleteExperiment(**armed, config);
  ASSERT_TRUE(armed_result.ok());
  EXPECT_NE(armed_result->chaos_fingerprint, 0u);
  EXPECT_EQ(armed_result->chaos_fingerprint,
            (*armed)->chaos->TraceFingerprint());
}

// A pack's spot_market section rents every spot member as a VM on a
// market the pack's hazard events act on, and returns the world paused
// once the VMs have booted; hazard events without the section are an
// error that names it.
TEST(ExperimentTest, SpotMarketSectionRentsTheSpotMembersAsVms) {
  const ClusterSpec cluster{
      {GcT4s(2, net::kGcUs), GcT4s(2, net::kGcEu), LambdaA10s(1)}};
  ExperimentConfig config;
  config.duration_sec = 2 * kHour;
  scenario::ScenarioPack pack;
  pack.name = "us-storm";
  pack.spot_storms.push_back(
      {net::Continent::kUs, {0, 2 * kHour, /*frac=*/false}, 5000});

  auto missing = BuildExperimentWorld(cluster, config, &pack);
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(missing.status().message().find("spot_market"),
            std::string::npos)
      << missing.status().ToString();

  pack.spot_market = scenario::SpotMarketSpec{0.10};
  auto world = BuildExperimentWorld(cluster, config, &pack);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  ASSERT_NE((*world)->spot_market, nullptr);
  EXPECT_EQ((*world)->vms.size(), 4u);  // The on-demand A10 rents none.
  EXPECT_EQ((*world)->sim.Now(), cloud::SpotMarket::kVmStartupMaxSec + 1);
  auto result = CompleteExperiment(**world, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->spot_interruptions, 0);  // The US storm reclaims VMs.
  EXPECT_GT(result->train.epochs, 0);        // And training goes on.

  // A pack built in code gets the parser's [0, 1) range check too.
  for (const double rate :
       {1.0, 5.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    pack.spot_market->monthly_interruption_rate = rate;
    const Status status = BuildExperimentWorld(cluster, config, &pack).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << rate;
    EXPECT_NE(status.message().find("monthly_interruption_rate"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(ExperimentTest, CentralizedBaselinesPriceLikeThePaper) {
  auto dgx = RunCentralizedBaseline(cloud::VmTypeId::kGcDgx2,
                                    ModelId::kConvNextLarge);
  ASSERT_TRUE(dgx.ok());
  EXPECT_NEAR(dgx->spot_cost_per_million, 4.24, 0.05);  // Fig. 1.
  auto t4 = RunCentralizedBaseline(cloud::VmTypeId::kGcT4,
                                   ModelId::kConvNextLarge);
  ASSERT_TRUE(t4.ok());
  EXPECT_NEAR(t4->spot_cost_per_million, 0.625, 0.01);
  auto ddp_nlp = RunCentralizedBaseline(cloud::VmTypeId::kGc4xT4,
                                        ModelId::kRobertaXlm);
  EXPECT_EQ(ddp_nlp.status().code(), StatusCode::kOutOfMemory);
}

// --- Predictor ---

TEST(PredictorTest, PaperRuleOfThumbValues) {
  // Section 8: g=1 -> at best 1.33x when doubling; g=10 -> 1.83x.
  EXPECT_NEAR(PredictSpeedupFactor(1.0, 2.0), 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(PredictSpeedupFactor(10.0, 2.0), 11.0 / 6.0, 1e-9);
  // Infinite granularity approaches perfect scaling.
  EXPECT_NEAR(PredictSpeedupFactor(1e9, 2.0), 2.0, 1e-6);
  // Granularity 0: pure communication, no speedup.
  EXPECT_NEAR(PredictSpeedupFactor(0.0, 2.0), 1.0, 1e-9);
}

TEST(PredictorTest, ThroughputPredictionScalesMeasurement) {
  auto sps = PredictThroughput(100.0, 4.0, 2, 4);
  ASSERT_TRUE(sps.ok());
  EXPECT_NEAR(*sps, 100.0 * PredictSpeedupFactor(4.0, 2.0), 1e-9);
  // With linear comm growth the prediction is more conservative.
  auto conservative = PredictThroughput(100.0, 4.0, 2, 4, 0.05);
  ASSERT_TRUE(conservative.ok());
  EXPECT_LT(*conservative, *sps);
  EXPECT_FALSE(PredictThroughput(0, 4.0, 2, 4).ok());
  EXPECT_FALSE(PredictThroughput(100, 4.0, 0, 4).ok());
}

TEST(PredictorTest, PredictsA8FromA4WithinTolerance) {
  // Measure A-4 in the simulator, predict A-8, compare to simulated A-8.
  ExperimentConfig config;
  config.model = ModelId::kConvNextLarge;
  auto a4 = RunHivemindExperiment(ASeries()[3].cluster, config);
  auto a8 = RunHivemindExperiment(ASeries()[5].cluster, config);
  ASSERT_TRUE(a4.ok() && a8.ok());
  auto predicted = PredictThroughput(a4->train.throughput_sps,
                                     a4->train.granularity, 4, 8,
                                     /*comm_growth_per_peer=*/0.05);
  ASSERT_TRUE(predicted.ok());
  EXPECT_NEAR(*predicted, a8->train.throughput_sps,
              a8->train.throughput_sps * 0.2);
}

// --- Advisor ---

TEST(AdvisorTest, RanksSpotFleetsByCostPerSample) {
  AdvisorRequest request;
  request.model = ModelId::kConvNextLarge;
  request.fleet_sizes = {8};
  request.min_throughput_sps = 250;  // Rules out small fleets & 1 GPU.
  auto options = RankTrainingOptions(request);
  ASSERT_TRUE(options.ok());
  ASSERT_GE(options->size(), 6u);
  // The winner meets the target and costs less per sample than the DGX-2.
  const AdvisorOption& best = options->front();
  EXPECT_TRUE(best.meets_target);
  double dgx_cost = 0;
  bool found_dgx = false;
  for (const auto& option : *options) {
    if (option.description.find("DGX-2") != std::string::npos) {
      dgx_cost = option.cost_per_million;
      found_dgx = true;
    }
  }
  ASSERT_TRUE(found_dgx);
  EXPECT_LT(best.cost_per_million, dgx_cost);
}

TEST(AdvisorTest, RejectsEmptyFleetSizes) {
  AdvisorRequest request;
  request.fleet_sizes = {};
  EXPECT_FALSE(RankTrainingOptions(request).ok());
}

}  // namespace
}  // namespace hivesim::core

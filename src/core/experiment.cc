#include "core/experiment.h"

#include <algorithm>

#include "baselines/baselines.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace hivesim::core {

namespace {

/// The scenario view of a provisioned cluster: member order is peer
/// order, continents come from the topology's sites.
scenario::FleetView FleetViewOf(const Cluster& cluster,
                                const net::Topology& topology) {
  std::vector<scenario::FleetMember> members;
  members.reserve(cluster.members().size());
  for (const Cluster::Member& member : cluster.members()) {
    members.push_back({member.node, member.site,
                       topology.site(member.site).continent});
  }
  return scenario::MakeFleetView(std::move(members));
}

}  // namespace

Result<std::unique_ptr<ExperimentWorld>> BuildExperimentWorld(
    const ClusterSpec& cluster_spec, const ExperimentConfig& config,
    const scenario::ScenarioPack* pack) {
  // Trace-segment marker: every world is a fresh simulation restarting
  // at t=0, and `hivesim run`/`fleet` record several of them into one
  // recorder. The critical-path analyzer splits the trace at these
  // instants so events of consecutive runs are never cross-matched by
  // timestamp coincidence.
  telemetry::Instant(0.0, "trace", "run-start");
  auto world = std::make_unique<ExperimentWorld>();
  world->topology = net::StandardWorld();
  HIVESIM_ASSIGN_OR_RETURN(
      world->cluster, Cluster::Provision(&world->topology, cluster_spec));
  world->network =
      std::make_unique<net::Network>(&world->sim, &world->topology);

  hivemind::TrainerConfig trainer_config;
  trainer_config.model = config.model;
  trainer_config.target_batch_size = config.target_batch_size;
  trainer_config.delayed_parameter_updates = config.delayed_parameter_updates;
  trainer_config.compression = config.compression;
  trainer_config.strategy = config.strategy;
  trainer_config.streams_per_transfer = config.streams_per_transfer;
  trainer_config.seed = config.seed;
  if (pack != nullptr) {
    trainer_config = hivemind::ChurnHardened(trainer_config);
  }

  world->trainer =
      std::make_unique<hivemind::Trainer>(world->network.get(), trainer_config);
  for (const hivemind::PeerSpec& peer : world->cluster.PeerSpecs()) {
    HIVESIM_RETURN_IF_ERROR(world->trainer->AddPeer(peer));
  }
  if (pack != nullptr) {
    faults::ChaosSchedule schedule;
    HIVESIM_ASSIGN_OR_RETURN(
        schedule,
        scenario::Compile(*pack, FleetViewOf(world->cluster, world->topology),
                          config.duration_sec));
    world->chaos = std::make_unique<faults::ChaosInjector>(
        &world->sim, &world->topology, world->network.get(), config.seed);
    world->chaos->AttachTrainer(world->trainer.get());
    HIVESIM_RETURN_IF_ERROR(world->chaos->Arm(schedule));
  }
  return world;
}

Result<ExperimentResult> CompleteExperiment(ExperimentWorld& world,
                                            const ExperimentConfig& config) {
  const net::Topology& topology = world.topology;
  net::Network& network = *world.network;
  hivemind::Trainer& trainer = *world.trainer;

  ExperimentResult result;
  HIVESIM_ASSIGN_OR_RETURN(result.train,
                           trainer.RunFor(config.duration_sec));
  const double duration =
      result.train.duration_sec > 0 ? result.train.duration_sec
                                    : config.duration_sec;
  const double hours = duration / kHour;

  // Per-VM billing: egress bucketed by destination site, plus B2 data.
  const auto& members = world.cluster.members();
  for (const Cluster::Member& member : members) {
    cloud::VmUsage usage;
    usage.type = member.type;
    usage.site = topology.site(member.site);
    usage.spot = member.spot;
    usage.hours = hours;
    for (size_t dst_site = 0; dst_site < topology.num_sites(); ++dst_site) {
      double bytes = 0;
      for (const Cluster::Member& other : members) {
        if (other.node == member.node) continue;
        if (topology.SiteOf(other.node) != dst_site) continue;
        bytes += network.BytesBetweenNodes(member.node, other.node);
      }
      if (bytes > 0) {
        usage.egress_bytes_by_dst.emplace_back(
            topology.site(static_cast<net::SiteId>(dst_site)), bytes);
      }
    }
    auto ingress = trainer.DataIngressBytes(member.node);
    usage.data_ingress_bytes = ingress.ok() ? *ingress : 0.0;
    result.usages.push_back(std::move(usage));

    result.peak_egress_bps.push_back(
        network.NodePeakEgressRate(member.node));
    result.avg_egress_bps.push_back(
        duration > 0 ? network.NodeEgressBytes(member.node) / duration : 0);
  }

  result.fleet_cost = cloud::PriceFleet(result.usages);
  if (hours > 0) {
    result.fleet_cost_per_hour = result.fleet_cost.Total() / hours;
    result.fleet_cost_per_hour_excl_data =
        (result.fleet_cost.Total() - result.fleet_cost.data_loading) / hours;
  }
  result.cost_per_million = cloud::CostPerMillionSamples(
      result.fleet_cost_per_hour, result.train.throughput_sps);
  result.cost_per_million_excl_data = cloud::CostPerMillionSamples(
      result.fleet_cost_per_hour_excl_data, result.train.throughput_sps);
  if (world.chaos) result.chaos_fingerprint = world.chaos->TraceFingerprint();
  return result;
}

Result<ExperimentResult> RunHivemindExperiment(
    const ClusterSpec& cluster_spec, const ExperimentConfig& config,
    const scenario::ScenarioPack* pack) {
  std::unique_ptr<ExperimentWorld> world;
  HIVESIM_ASSIGN_OR_RETURN(world,
                           BuildExperimentWorld(cluster_spec, config, pack));
  return CompleteExperiment(*world, config);
}

Result<CentralizedResult> RunCentralizedBaseline(cloud::VmTypeId type,
                                                 models::ModelId model) {
  const cloud::VmType& vm = cloud::GetVmType(type);
  CentralizedResult result;
  if (vm.gpu_count > 1) {
    baselines::DdpNodeConfig node;
    node.model = model;
    node.gpu = vm.gpu;
    node.gpu_count = vm.gpu_count;
    node.host = vm.host;
    node.interconnect_bytes_per_sec =
        vm.gpu == compute::GpuModel::kV100 ? 120e9 : 5.4e9;
    HIVESIM_ASSIGN_OR_RETURN(result.throughput_sps,
                             baselines::DdpThroughput(node));
  } else {
    HIVESIM_ASSIGN_OR_RETURN(
        result.throughput_sps,
        baselines::SingleGpuThroughput(model, vm.gpu, vm.host));
  }
  result.spot_per_hour = vm.spot_per_hour;
  result.ondemand_per_hour = vm.ondemand_per_hour;
  result.spot_cost_per_million = cloud::CostPerMillionSamples(
      vm.spot_per_hour, result.throughput_sps);
  result.ondemand_cost_per_million = cloud::CostPerMillionSamples(
      vm.ondemand_per_hour, result.throughput_sps);
  return result;
}

}  // namespace hivesim::core

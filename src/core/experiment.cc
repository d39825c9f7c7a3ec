#include "core/experiment.h"

#include <algorithm>

#include "baselines/baselines.h"
#include "common/strings.h"
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

/// Rents every spot member as an auto-restarting VM on the world's new
/// market: an interruption removes the member's peer, and the
/// replacement re-joins and resynchronizes. The VMs are not started.
void RentSpotFleet(ExperimentWorld& world,
                   const scenario::SpotMarketSpec& spec, uint64_t seed) {
  world.spot_market = std::make_unique<cloud::SpotMarket>(
      Rng(seed), spec.monthly_interruption_rate);
  hivemind::Trainer* trainer = world.trainer.get();
  const std::vector<hivemind::PeerSpec> peers = world.cluster.PeerSpecs();
  const auto& members = world.cluster.members();
  for (size_t i = 0; i < members.size(); ++i) {
    if (!members[i].spot) continue;
    cloud::VmInstance* vm =
        world.vms
            .emplace_back(std::make_unique<cloud::VmInstance>(
                &world.sim, world.spot_market.get(),
                world.topology.site(members[i].site).continent))
            .get();
    const hivemind::PeerSpec peer = peers[i];
    vm->on_interrupted = [trainer, peer] {
      trainer->RemovePeer(peer.node).ok();
    };
    // The first on_running is the initial boot (the peer is already
    // registered); later ones are replacements.
    vm->on_running = [trainer, peer, vm] {
      if (vm->interruptions() > 0) trainer->JoinPeer(peer).ok();
    };
  }
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
  trainer_config.churn_hardened = pack != nullptr;

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
    if (!schedule.spot_storms.empty() && !pack->spot_market) {
      return Status::FailedPrecondition(
          StrCat("scenario pack '", pack->name,
                 "' has spot hazard events but no spot_market section"));
    }
    world->chaos = std::make_unique<faults::ChaosInjector>(
        &world->sim, &world->topology, world->network.get(), config.seed);
    world->chaos->AttachTrainer(world->trainer.get());
    if (pack->spot_market) {
      RentSpotFleet(*world, *pack->spot_market, config.seed);
      world->chaos->AttachSpotMarket(world->spot_market.get());
    }
    // Armed before the VMs draw interruption times, so hazard windows are
    // part of their hazard from the first draw.
    HIVESIM_RETURN_IF_ERROR(world->chaos->Arm(schedule));
    if (world->spot_market) {
      for (const auto& vm : world->vms) vm->Start();
      world->sim.RunUntil(cloud::SpotMarket::kVmStartupMaxSec + 1);
    }
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
  for (const auto& vm : world.vms) {
    result.spot_interruptions += vm->interruptions();
  }
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

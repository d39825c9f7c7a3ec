#ifndef HIVESIM_CORE_EXPERIMENT_H_
#define HIVESIM_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cost.h"
#include "cloud/spot_market.h"
#include "cloud/vm.h"
#include "common/result.h"
#include "core/cluster.h"
#include "faults/chaos.h"
#include "hivemind/trainer.h"
#include "models/model_zoo.h"
#include "net/network.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace hivesim::core {

/// Parameters of one training experiment.
struct ExperimentConfig {
  models::ModelId model = models::ModelId::kConvNextLarge;
  int target_batch_size = 32768;
  /// Simulated wall-clock to train for.
  double duration_sec = 2 * 3600.0;
  bool delayed_parameter_updates = true;
  models::Compression compression = models::Compression::kFp16;
  collective::Strategy strategy = collective::Strategy::kAuto;
  int streams_per_transfer = 1;
  uint64_t seed = 1;
};

/// Everything a bench needs to print a paper row.
struct ExperimentResult {
  hivemind::RunStats train;          ///< Throughput/calc/comm/granularity.
  cloud::CostBreakdown fleet_cost;   ///< Dollars over the whole run.
  double fleet_cost_per_hour = 0;    ///< Fleet total $/h (all components).
  double cost_per_million = 0;       ///< $ per 1M processed samples.
  /// Same, excluding the one-time B2 data-loading cost — the accounting
  /// the paper's Fig. 1/15/17 use ("including egress costs"; data
  /// streaming is a one-time cost until the dataset is cached).
  double fleet_cost_per_hour_excl_data = 0;
  double cost_per_million_excl_data = 0;
  std::vector<cloud::VmUsage> usages;      ///< Per-VM billing inputs.
  std::vector<double> peak_egress_bps;     ///< Per-VM peak egress rate.
  std::vector<double> avg_egress_bps;      ///< Per-VM average egress rate.
  /// The armed scenario pack's injector trace FNV (the replay handle
  /// sweep manifests and `hivesim run --scenario` print); 0 without one.
  uint64_t chaos_fingerprint = 0;
  /// Spot interruptions across the fleet's VMs (a pack's `spot_market`
  /// section rents them); 0 without one.
  int spot_interruptions = 0;
};

/// A fully provisioned experiment universe: its own simulator, a private
/// copy of the standard-world topology, the provisioned fleet, and a
/// trainer with every peer joined — everything mutable an experiment
/// touches, owned by one object. Nothing in here is shared between
/// worlds, which is what makes concurrent sweep cells safe; the immutable
/// inputs (VM/pricing catalog, model calibration tables, site profiles)
/// are const lookup tables and may be read from any number of worlds.
///
/// A world built with a scenario pack also owns the `faults::ChaosInjector`
/// armed with that pack, compiled against this fleet; `chaos` is null
/// without one. A pack with a `spot_market` section also gives the world
/// its `cloud::SpotMarket` and one auto-restarting VM per spot member: an
/// interruption removes the member's peer, and its replacement re-joins
/// and resynchronizes. The world is built paused between provisioning and
/// training so callers can still schedule machinery that must observe the
/// run from there (the fuzzer's monotone-clock probes): at t=0, or, with
/// spot VMs, at `SpotMarket::kVmStartupMaxSec + 1` once every VM has
/// booted. Not movable (the simulator pins itself as the thread's
/// log-clock), so it lives behind a unique_ptr.
struct ExperimentWorld {
  sim::Simulator sim;
  net::Topology topology;
  Cluster cluster;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<hivemind::Trainer> trainer;
  std::unique_ptr<cloud::SpotMarket> spot_market;
  /// One per spot cluster member, in member order.
  std::vector<std::unique_ptr<cloud::VmInstance>> vms;
  /// Declared last so it is destroyed first: it points into everything
  /// above.
  std::unique_ptr<faults::ChaosInjector> chaos;
};

/// Provisions the fleet on a fresh copy of the standard world and joins
/// every peer to a configured trainer; training has not started yet.
/// With `pack`, the trainer gets the churn hardening
/// (`TrainerConfig::churn_hardened`) and `world->chaos` is armed with the
/// pack compiled against the provisioned fleet, seeded by `config.seed`.
/// A `spot_market` section adds the market (seeded by `config.seed`),
/// arms it with the pack's hazard events, boots the spot VMs and runs the
/// clock to `SpotMarket::kVmStartupMaxSec + 1`. Hazard events without the
/// section are a FailedPrecondition naming it.
Result<std::unique_ptr<ExperimentWorld>> BuildExperimentWorld(
    const ClusterSpec& cluster, const ExperimentConfig& config,
    const scenario::ScenarioPack* pack = nullptr);

/// Trains the built world for the configured duration and prices the run
/// (instance + egress split + B2 data), recording the chaos fingerprint
/// of an armed world. Consumes the world's simulation (call once per
/// world).
Result<ExperimentResult> CompleteExperiment(ExperimentWorld& world,
                                            const ExperimentConfig& config);

/// Runs a decentralized (Hivemind) training experiment on a fresh copy of
/// the standard world: provisions the fleet, trains for the configured
/// duration, and prices the run (instance + egress split + B2 data).
/// Equivalent to BuildExperimentWorld + CompleteExperiment.
Result<ExperimentResult> RunHivemindExperiment(
    const ClusterSpec& cluster, const ExperimentConfig& config,
    const scenario::ScenarioPack* pack = nullptr);

/// A centralized single-node competitor (for Figs. 1, 15, 17).
struct CentralizedResult {
  double throughput_sps = 0;
  double spot_per_hour = 0;
  double ondemand_per_hour = 0;
  double spot_cost_per_million = 0;
  double ondemand_cost_per_million = 0;
};

/// Prices the single-GPU baseline or a DDP node of `type` training
/// `model`. Multi-GPU types run PyTorch DDP; single-GPU types run the
/// gradient-accumulation baseline. Returns OutOfMemory where the paper's
/// run OOMed.
Result<CentralizedResult> RunCentralizedBaseline(cloud::VmTypeId type,
                                                 models::ModelId model);

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_EXPERIMENT_H_

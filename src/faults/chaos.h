#ifndef HIVESIM_FAULTS_CHAOS_H_
#define HIVESIM_FAULTS_CHAOS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/spot_market.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "hivemind/trainer.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace hivesim::faults {

/// A spot-interruption storm: between `start_sec` and `start_sec +
/// duration_sec` the interruption hazard of every spot VM in `continent`
/// is multiplied by `hazard_multiplier` (Section 7's daylight capacity
/// crunches, scripted).
struct SpotStormEvent {
  net::Continent continent = net::Continent::kUs;
  double start_sec = 0;
  double duration_sec = 0;
  double hazard_multiplier = 1.0;
};

/// A WAN window on the (symmetric) path between two sites: bandwidth is
/// scaled by `bandwidth_factor` (0 = full partition) and `extra_rtt_sec`
/// is added to the RTT for the duration, after which the path recovers.
/// Overlapping windows on the same pair compound multiplicatively.
struct WanEvent {
  net::SiteId a = 0;
  net::SiteId b = 0;
  double start_sec = 0;
  double duration_sec = 0;
  double bandwidth_factor = 1.0;
  double extra_rtt_sec = 0;
};

/// A scripted node failure at `at_sec`. If `restart_after_sec >= 0` a
/// replacement comes back on the same endpoint that much later (the
/// trainer peer re-joins and re-synchronizes); otherwise the node stays
/// dead.
struct NodeCrashEvent {
  net::NodeId node = 0;
  double at_sec = 0;
  double restart_after_sec = -1;
};

/// A randomized churn burst: `crashes` failures drawn uniformly over
/// [start_sec, start_sec + duration_sec) across `nodes`, each restarting
/// `restart_after_sec` later (< 0 = never). Expansion happens at Arm()
/// time from the injector's seeded stream, so identical seeds script
/// identical storms.
struct CrashStormEvent {
  std::vector<net::NodeId> nodes;
  double start_sec = 0;
  double duration_sec = 0;
  int crashes = 0;
  double restart_after_sec = -1;
};

/// A deterministic chaos script: the fault windows and churn events
/// that `ChaosInjector::Arm` turns into simulator events.
/// `scenario::Compile` fills it from a scenario pack; the schedule holds
/// no simulator state and can be re-armed against fresh simulations
/// (replay).
struct ChaosSchedule {
  std::vector<SpotStormEvent> spot_storms;
  std::vector<WanEvent> wan_events;
  std::vector<NodeCrashEvent> crashes;
  std::vector<CrashStormEvent> crash_storms;

  /// Structural sanity: non-negative times/durations, factors in [0, 1],
  /// storms with at least one node and one crash.
  Status Validate() const;
};

/// Counters of what the injector actually did (applied, not merely
/// scheduled).
struct ChaosStats {
  int spot_storms = 0;      ///< Hazard windows registered at Arm().
  int wan_degradations = 0; ///< WAN windows applied (incl. partitions).
  int wan_recoveries = 0;   ///< WAN windows that ended and restored.
  int crashes = 0;
  int restarts = 0;
};

/// Drives a `ChaosSchedule` through the simulator against the attached
/// systems:
///   - spot storms register `cloud::HazardWindow`s on the attached
///     `SpotMarket` (VMs drawing interruption times after Arm() see
///     them),
///   - WAN events edit the live `Topology` via `SetPath` and call
///     `Network::Refresh`, saving the original path and restoring it when
///     the last overlapping window ends,
///   - node crashes remove the trainer peer (capturing its spec);
///     restarts re-join the peer, which re-synchronizes for two epochs.
///
/// All randomness (crash storms) is expanded at Arm() time from the
/// injector's seeded stream: identical seed + schedule + simulation =>
/// bit-identical event sequence (`TraceFingerprint` asserts this).
class ChaosInjector {
 public:
  ChaosInjector(sim::Simulator* sim, net::Topology* topology,
                net::Network* network, uint64_t seed = 1);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  void AttachSpotMarket(cloud::SpotMarket* market) { market_ = market; }
  void AttachTrainer(hivemind::Trainer* trainer) { trainer_ = trainer; }

  /// Validates the schedule and converts it into simulator events.
  /// Requires a SpotMarket attachment if the schedule contains spot
  /// storms (they would otherwise be silent no-ops). May be called more
  /// than once to stack schedules.
  Status Arm(const ChaosSchedule& schedule);

  const ChaosStats& stats() const { return stats_; }

  /// Chronological log of every applied event (sim time + description).
  struct TraceEntry {
    double at_sec = 0;
    std::string event;
  };
  const std::vector<TraceEntry>& trace() const { return trace_; }
  /// FNV-1a over the trace; bit-identical across replays of the same
  /// seed and schedule.
  uint64_t TraceFingerprint() const;

 private:
  struct ActiveWan {
    int id = 0;
    double bandwidth_factor = 1.0;
    double extra_rtt_sec = 0;
  };
  struct PairState {
    net::Path original;
    std::vector<ActiveWan> active;
  };

  static uint64_t PairKey(net::SiteId a, net::SiteId b);

  void ApplyWan(int id, const WanEvent& event);
  void RestoreWan(int id, const WanEvent& event);
  /// Rebuilds the pair's path from the original and all active windows.
  void ReapplyPair(uint64_t key, net::SiteId a, net::SiteId b);
  void Crash(net::NodeId node, double restart_after_sec);
  void Restart(net::NodeId node);
  void AddTrace(std::string event);

  sim::Simulator* sim_;
  net::Topology* topology_;
  net::Network* network_;
  Rng rng_;
  cloud::SpotMarket* market_ = nullptr;
  hivemind::Trainer* trainer_ = nullptr;

  int next_wan_id_ = 0;
  std::unordered_map<uint64_t, PairState> wan_state_;
  std::unordered_map<net::NodeId, hivemind::PeerSpec> crashed_specs_;
  ChaosStats stats_;
  std::vector<TraceEntry> trace_;
};

}  // namespace hivesim::faults

#endif  // HIVESIM_FAULTS_CHAOS_H_

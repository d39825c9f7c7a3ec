#ifndef HIVESIM_HIVEMIND_TRAINER_H_
#define HIVESIM_HIVEMIND_TRAINER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "collective/allreduce.h"
#include "common/result.h"
#include "common/rng.h"
#include "compute/gpu.h"
#include "compute/host.h"
#include "data/loader.h"
#include "models/calibration.h"
#include "models/memory.h"
#include "models/model_zoo.h"
#include "net/network.h"

namespace hivesim::hivemind {

/// One training peer: a GPU VM participating in the decentralized run.
struct PeerSpec {
  net::NodeId node = 0;
  compute::GpuModel gpu = compute::GpuModel::kT4;
  compute::HostClass host = compute::HostClass::kGcN1Standard8;
  /// GPUs inside this peer (the Section 6 F setting runs a whole DGX-2 as
  /// one Hivemind peer, doing node-local data parallelism underneath).
  int gpu_count = 1;
};

/// Configuration of a decentralized training run (Hivemind semantics).
struct TrainerConfig {
  models::ModelId model = models::ModelId::kConvNextLarge;
  /// Samples all peers jointly accumulate before one averaging step —
  /// the "hivemind epoch" unit (Section 2.1).
  int target_batch_size = 32768;
  /// Delayed parameter updates: overlap the CPU-side optimizer apply
  /// with the next epoch's compute, at one round of staleness.
  bool delayed_parameter_updates = true;
  /// Gradient compression for peer-to-peer payloads. FP16 is the default
  /// in all paper experiments; kNone (FP32) and kInt8 serve the ablation
  /// and the paper's "better compression" future-work direction.
  models::Compression compression = models::Compression::kFp16;
  collective::Strategy strategy = collective::Strategy::kAuto;
  /// TCP streams per gradient transfer (1 = Hivemind's behaviour).
  int streams_per_transfer = 1;
  /// Section 7 churn hardening, the preset every chaos run uses: a
  /// 2-minute watchdog aborts rounds a partition froze (its flows stall
  /// at rate zero), retries start after 1 s, and after two failed retries
  /// the round degrades to the largest mutually reachable partition
  /// instead of stalling the run. Off, there is no watchdog, retries start
  /// after 0.5 s and the round degrades after six. Either way a failed
  /// round restarts with the surviving group after an exponential backoff
  /// (doubling, capped at 30 s, jittered ±20% from the run's seeded
  /// stream to decorrelate retries).
  bool churn_hardened = false;
  uint64_t seed = 1;
};

/// Validates a configuration (positive TBS and stream count).
Status ValidateTrainerConfig(const TrainerConfig& config);

/// Per-epoch timing record.
struct EpochStats {
  double calc_sec = 0;   ///< Accumulation (compute) portion.
  double comm_sec = 0;   ///< Matchmaking wait + averaging + apply.
  double samples = 0;    ///< Samples contributing to the step (== TBS).
  int peers = 0;         ///< Averaging participants.
};

/// Aggregate results of a run.
struct RunStats {
  double duration_sec = 0;       ///< Start to last completed epoch.
  double total_samples = 0;
  double throughput_sps = 0;     ///< "hivemind global" throughput.
  double local_throughput_sps = 0;  ///< Fleet rate without averaging.
  double avg_calc_sec = 0;
  double avg_comm_sec = 0;
  /// The paper's granularity metric: calculation / communication time.
  double granularity = 0;
  int epochs = 0;
  std::vector<EpochStats> epoch_stats;
};

/// Decentralized data-parallel trainer with Hivemind semantics: target-
/// batch-size accumulation, matchmaking floor, Moshpit-style averaging
/// over real simulated flows, delayed parameter updates, peer churn.
///
/// Typical use (see examples/quickstart.cc):
///   Trainer trainer(&network, config);
///   trainer.AddPeer(peer);  // xN
///   auto stats = trainer.RunFor(2 * kHour);
class Trainer {
 public:
  Trainer(net::Network* network, TrainerConfig config);

  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// Registers a peer before the run starts. Verifies the model fits the
  /// peer's GPU/host (OutOfMemory otherwise).
  Status AddPeer(const PeerSpec& peer);

  /// Starts the training loop on the simulator. Requires >= 1 peer.
  Status Start();

  /// Stops at the current simulation time; stats freeze at the last
  /// completed epoch.
  void Stop();

  /// Convenience: Start(), drive the simulator `seconds` forward, Stop(),
  /// and return the stats.
  Result<RunStats> RunFor(double seconds);

  /// Spot interruption: the peer disappears mid-run. Lost accumulation is
  /// discarded; an averaging round in flight restarts without the peer.
  Status RemovePeer(net::NodeId node);

  /// A replacement peer joins a running training. It spends the next two
  /// hivemind epochs synchronizing state (Section 7) before contributing.
  Status JoinPeer(const PeerSpec& peer);

  /// Spec of a current peer (NotFound if the node is not in the run).
  /// Fault injectors capture this before a crash so the replacement can
  /// rejoin with identical hardware.
  Result<PeerSpec> PeerSpecOf(net::NodeId node) const;

  /// Stats of the run so far (valid during and after the run).
  RunStats Stats() const;

  /// Live introspection for the training monitor.
  int current_epoch() const { return static_cast<int>(completed_.size()); }
  double EpochProgress() const;  ///< Accumulated samples / TBS.
  int ActivePeers() const;
  bool running() const { return running_; }
  /// True while an averaging round (matchmake + all-reduce + apply) is in
  /// flight; accumulation is paused for its duration.
  bool averaging_in_flight() const { return averaging_; }

  /// Per-peer dataset bytes streamed from B2 so far (cost accounting).
  Result<double> DataIngressBytes(net::NodeId node) const;

  const TrainerConfig& config() const { return config_; }

 private:
  struct PeerState {
    PeerSpec spec;
    double local_sps = 0;      ///< Contribution rate while training.
    int sync_epochs_left = 0;  ///< >0 while re-synchronizing after join.
    std::unique_ptr<data::StreamingIngressMeter> ingress;
  };

  void StartEpoch();
  /// Recomputes when the fleet reaches the TBS and (re)schedules the
  /// averaging kickoff.
  void ScheduleAveraging();
  void BeginAveraging();
  void RunAllReduce();
  /// Books the finished round's stats; the comm span is derived from
  /// simulator time and `averaging_started_` internally.
  void FinishEpoch();
  /// Common round tail: the (overlappable) optimizer apply, then
  /// FinishEpoch. Generation-checked.
  void ScheduleApplyAndFinish();
  /// Handles a failed averaging attempt (churn abort or watchdog
  /// timeout): retries with backoff, degrading to the largest reachable
  /// partition once the preset's retry budget is spent.
  void FailRound();
  /// Members of the largest mutually reachable peer subset (paths with
  /// zero bandwidth — live partitions — disconnect sites).
  std::vector<collective::Peer> LargestReachableGroup() const;
  void ArmRoundWatchdog();
  void CancelRoundWatchdog();
  /// Sum of active peers' local rates.
  double FleetRate() const;
  /// Samples accumulated since epoch start (analytic integral).
  double AccumulatedSamples() const;
  /// Advances the accumulation integral to `now` (on any rate change).
  void SyncAccumulation();
  double GradientBytes() const;
  double MaxApplySec() const;

  net::Network* network_;
  TrainerConfig config_;
  Rng rng_;
  std::vector<PeerState> peers_;
  collective::AllReduce allreduce_;

  bool running_ = false;
  double run_start_ = 0;
  double epoch_start_ = 0;
  double accum_samples_ = 0;
  double accum_synced_at_ = 0;
  bool averaging_ = false;
  double averaging_started_ = 0;
  double tbs_reached_at_ = 0;  ///< When accumulation hit the TBS.
  sim::EventId averaging_event_ = 0;
  bool has_averaging_event_ = false;
  sim::EventId watchdog_event_ = 0;
  bool has_watchdog_event_ = false;
  /// Participants of the current averaging attempt; kept across rounds so
  /// its buffer is reused.
  std::vector<collective::Peer> members_;
  int round_retries_ = 0;       ///< Consecutive failed averaging attempts.
  bool degraded_round_ = false; ///< Next attempt averages the partition only.
  uint64_t generation_ = 0;
  std::vector<EpochStats> completed_;
  double last_epoch_end_ = 0;
  /// Args of the trainer events being recorded, reused by every event so
  /// recording builds no string of its own.
  std::string trace_args_;
};

}  // namespace hivesim::hivemind

#endif  // HIVESIM_HIVEMIND_TRAINER_H_

#include "hivemind/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "telemetry/telemetry.h"

namespace hivesim::hivemind {

namespace {
constexpr double kEpsilon = 1e-9;
// When accumulation finishes before the 5 s matchmaking floor, the
// group-forming thread isn't ready and the round start jitters by up to
// this fraction of the floor (Section 3, observation 2).
constexpr double kMatchmakingJitterFrac = 0.5;
// Cap of the exponential backoff between averaging retries.
constexpr double kAveragingRetryMaxSec = 30.0;

// How an averaging round recovers from failures; see
// `TrainerConfig::churn_hardened`.
struct RoundRecovery {
  double retry_base_sec;     // First backoff; doubles per failed attempt.
  double round_timeout_sec;  // Watchdog; 0 disables it.
  int max_retries;           // Failed attempts before degrading the round.
};
constexpr RoundRecovery kCalmRecovery{0.5, 0.0, 6};
constexpr RoundRecovery kChurnHardenedRecovery{1.0, 120.0, 2};

const RoundRecovery& RecoveryOf(const TrainerConfig& config) {
  return config.churn_hardened ? kChurnHardenedRecovery : kCalmRecovery;
}

// {"<key>":<value>}, the args of the epoch spans and round retries,
// written over `*args` (the trainer's reused buffer).
std::string_view IntArgs(std::string* args, std::string_view key, int value) {
  args->assign("{\"");
  *args += key;
  *args += "\":";
  AppendInt(args, value);
  *args += '}';
  return *args;
}
}  // namespace

Status ValidateTrainerConfig(const TrainerConfig& config) {
  if (config.target_batch_size < 1) {
    return Status::InvalidArgument("target batch size must be >= 1");
  }
  if (config.streams_per_transfer < 1) {
    return Status::InvalidArgument("streams per transfer must be >= 1");
  }
  return Status::OK();
}

Trainer::Trainer(net::Network* network, TrainerConfig config)
    : network_(network),
      config_(config),
      rng_(config.seed),
      allreduce_(network) {}

Status Trainer::AddPeer(const PeerSpec& peer) {
  if (running_) {
    return Status::FailedPrecondition(
        "use JoinPeer to add peers to a running training");
  }
  HIVESIM_RETURN_IF_ERROR(models::CheckFits(
      config_.model, models::TrainerKind::kHivemind, peer.gpu, peer.host));
  PeerState state;
  state.spec = peer;
  double sps = 0;
  HIVESIM_ASSIGN_OR_RETURN(sps,
                           models::BaselineSps(config_.model, peer.gpu));
  state.local_sps = sps * std::max(1, peer.gpu_count) *
                    models::HivemindLocalPenalty(config_.model);
  peers_.push_back(std::move(state));
  return Status::OK();
}

Status Trainer::Start() {
  if (running_) return Status::FailedPrecondition("already running");
  HIVESIM_RETURN_IF_ERROR(ValidateTrainerConfig(config_));
  if (peers_.empty()) {
    return Status::FailedPrecondition("no peers registered");
  }
  // Dataset partition: each peer streams its own shard subset.
  const data::DatasetProfile& dataset = data::DatasetFor(config_.model);
  for (PeerState& p : peers_) {
    p.ingress = std::make_unique<data::StreamingIngressMeter>(
        dataset.total_samples / peers_.size(), dataset.sample_bytes);
  }
  running_ = true;
  run_start_ = network_->simulator().Now();
  last_epoch_end_ = run_start_;
  StartEpoch();
  return Status::OK();
}

void Trainer::Stop() {
  if (!running_) return;
  running_ = false;
  ++generation_;
  if (has_averaging_event_) {
    network_->simulator().Cancel(averaging_event_);
    has_averaging_event_ = false;
  }
  CancelRoundWatchdog();
  if (allreduce_.running()) allreduce_.Abort();
}

Result<RunStats> Trainer::RunFor(double seconds) {
  HIVESIM_RETURN_IF_ERROR(Start());
  sim::Simulator& sim = network_->simulator();
  sim.RunUntil(sim.Now() + seconds);
  Stop();
  return Stats();
}

double Trainer::FleetRate() const {
  double rate = 0;
  for (const PeerState& p : peers_) {
    if (p.sync_epochs_left == 0) rate += p.local_sps;
  }
  return rate;
}

int Trainer::ActivePeers() const {
  int n = 0;
  for (const PeerState& p : peers_) {
    if (p.sync_epochs_left == 0) ++n;
  }
  return n;
}

void Trainer::SyncAccumulation() {
  const double now = network_->simulator().Now();
  if (!averaging_ && now > accum_synced_at_) {
    accum_samples_ += FleetRate() * (now - accum_synced_at_);
  }
  accum_synced_at_ = now;
}

double Trainer::AccumulatedSamples() const {
  const double now = network_->simulator().Now();
  double accum = accum_samples_;
  if (!averaging_ && now > accum_synced_at_) {
    accum += FleetRate() * (now - accum_synced_at_);
  }
  return accum;
}

double Trainer::EpochProgress() const {
  return std::min(1.0, AccumulatedSamples() / config_.target_batch_size);
}

double Trainer::GradientBytes() const {
  return models::GetModelSpec(config_.model)
      .GradientBytes(config_.compression);
}

double Trainer::MaxApplySec() const {
  const double params = models::GetModelSpec(config_.model).params;
  double apply = 0;
  for (const PeerState& p : peers_) {
    apply = std::max(apply, models::ApplySec(params, p.spec.host));
  }
  return apply;
}

void Trainer::StartEpoch() {
  if (!running_) return;
  epoch_start_ = network_->simulator().Now();
  accum_samples_ = 0;
  accum_synced_at_ = epoch_start_;
  averaging_ = false;
  ScheduleAveraging();
}

void Trainer::ScheduleAveraging() {
  if (!running_ || averaging_) return;
  if (has_averaging_event_) {
    network_->simulator().Cancel(averaging_event_);
    has_averaging_event_ = false;
  }
  const double rate = FleetRate();
  if (rate <= kEpsilon) {
    // All peers gone or still synchronizing; training stalls until churn
    // brings capacity back. If only syncing peers remain, promote them —
    // there is nobody left to sync from.
    if (ActivePeers() == 0 && !peers_.empty()) {
      for (PeerState& p : peers_) p.sync_epochs_left = 0;
      ScheduleAveraging();
    }
    return;
  }

  SyncAccumulation();
  const double now = network_->simulator().Now();
  const double remaining =
      std::max(0.0, config_.target_batch_size - accum_samples_);
  const double t_star = now + remaining / rate;
  tbs_reached_at_ = t_star;
  const double floor_time = epoch_start_ + models::MinMatchmakingSec();
  double start = t_star;
  if (t_star < floor_time) {
    // Accumulation beat the matchmaking thread: the round start becomes
    // unstable (Section 3, observation 2).
    start = floor_time +
            rng_.Uniform(0, kMatchmakingJitterFrac *
                                models::MinMatchmakingSec());
  }

  const uint64_t gen = generation_;
  averaging_event_ = network_->simulator().ScheduleAt(start, [this, gen] {
    if (gen != generation_) return;
    has_averaging_event_ = false;
    BeginAveraging();
  });
  has_averaging_event_ = true;
}

void Trainer::BeginAveraging() {
  if (!running_ || averaging_) return;
  SyncAccumulation();
  averaging_ = true;
  averaging_started_ = network_->simulator().Now();
  telemetry::Gauge("trainer.averaging_in_flight", 1);

  // Syncing peers join rounds to receive state.
  const int participants = static_cast<int>(peers_.size());

  const uint64_t gen = generation_;
  if (participants < 2) {
    // Nothing to average against; only the (overlappable) apply remains.
    ScheduleApplyAndFinish();
    return;
  }

  const double overhead =
      models::AveragingFixedOverheadSec() +
      models::AveragingPerPeerOverheadSec() * participants;

  // The transfers start once the group-forming overhead has elapsed.
  network_->simulator().Schedule(overhead, [this, gen] {
    if (gen != generation_) return;
    RunAllReduce();
  });
}

void Trainer::RunAllReduce() {
  if (!running_) return;
  if (peers_.size() < 2) {
    ScheduleApplyAndFinish();
    return;
  }

  if (degraded_round_) {
    // Too many consecutive failures: continue with the surviving
    // partition instead of stalling on unreachable peers.
    members_ = LargestReachableGroup();
    if (members_.size() < 2) {
      ScheduleApplyAndFinish();
      return;
    }
  } else {
    members_.clear();
    for (const PeerState& p : peers_) {
      members_.push_back({p.spec.node, p.spec.host});
    }
  }
  collective::AllReduceOptions opts;
  opts.payload_bytes = GradientBytes();
  opts.strategy = config_.strategy;
  opts.streams_per_transfer = config_.streams_per_transfer;

  ArmRoundWatchdog();
  const uint64_t gen = generation_;
  Status started = allreduce_.Start(
      members_, opts, [this, gen](Result<collective::AllReduceResult> r) {
        if (gen != generation_) return;
        CancelRoundWatchdog();
        if (!r.ok()) {
          // Peer churn aborted the round: MoshpitSGD restarts group
          // averaging with the surviving peers (after a backoff).
          FailRound();
          return;
        }
        round_retries_ = 0;
        degraded_round_ = false;
        ScheduleApplyAndFinish();
      });
  if (!started.ok()) {
    HIVESIM_LOG(Error) << "all-reduce failed to start: "
                       << started.ToString();
    CancelRoundWatchdog();
    FailRound();
  }
}

void Trainer::ScheduleApplyAndFinish() {
  const double apply =
      config_.delayed_parameter_updates ? 0.0 : MaxApplySec();
  const uint64_t gen = generation_;
  network_->simulator().Schedule(apply, [this, gen] {
    if (gen != generation_) return;
    FinishEpoch();
  });
}

void Trainer::FailRound() {
  if (!running_ || !averaging_) return;
  CancelRoundWatchdog();
  ++round_retries_;
  HIVESIM_LOG(Info) << "averaging round failed (attempt " << round_retries_
                    << "), backing off";
  if (telemetry::Enabled()) {
    telemetry::Count("trainer.round_retries");
    telemetry::Instant(network_->simulator().Now(), "trainer", "round-retry",
                       IntArgs(&trace_args_, "attempt", round_retries_));
  }
  if (round_retries_ > RecoveryOf(config_).max_retries &&
      !degraded_round_) {
    degraded_round_ = true;
    HIVESIM_LOG(Info) << "degrading: averaging the largest reachable "
                         "partition only";
    if (telemetry::Enabled()) {
      telemetry::Count("trainer.rounds_degraded");
      telemetry::Instant(network_->simulator().Now(), "trainer",
                         "round-degraded");
    }
  }
  // Exponential backoff with seeded jitter; attempts are clamped so the
  // shift cannot overflow on very long outages.
  const int attempt = std::min(round_retries_, 30);
  double delay = RecoveryOf(config_).retry_base_sec *
                 std::pow(2.0, attempt - 1);
  delay = std::min(delay, kAveragingRetryMaxSec);
  delay *= rng_.Uniform(0.8, 1.2);
  const uint64_t gen = generation_;
  network_->simulator().Schedule(delay, [this, gen] {
    if (gen != generation_ || !running_ || !averaging_) return;
    RunAllReduce();
  });
}

std::vector<collective::Peer> Trainer::LargestReachableGroup() const {
  const net::Topology& topo = network_->topology();
  const size_t n = peers_.size();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const net::NodeId a = peers_[i].spec.node;
      const net::NodeId b = peers_[j].spec.node;
      bool reachable = false;
      auto path = topo.PathBetweenNodes(a, b);
      if (path.ok() && path->bandwidth_bps > 0) reachable = true;
      if (reachable) parent[find(static_cast<int>(i))] =
          find(static_cast<int>(j));
    }
  }
  std::vector<int> size(n, 0);
  for (size_t i = 0; i < n; ++i) ++size[find(static_cast<int>(i))];
  const int best = static_cast<int>(std::distance(
      size.begin(), std::max_element(size.begin(), size.end())));
  std::vector<collective::Peer> members;
  for (size_t i = 0; i < n; ++i) {
    if (find(static_cast<int>(i)) == best) {
      members.push_back({peers_[i].spec.node, peers_[i].spec.host});
    }
  }
  return members;
}

void Trainer::ArmRoundWatchdog() {
  CancelRoundWatchdog();
  const double timeout = RecoveryOf(config_).round_timeout_sec;
  if (timeout <= 0) return;
  const uint64_t gen = generation_;
  watchdog_event_ = network_->simulator().Schedule(timeout, [this, gen] {
    if (gen != generation_ || !running_ || !averaging_) return;
    has_watchdog_event_ = false;
    // The round stalled (e.g. a partition froze its flows at rate zero).
    // Invalidate every callback of the stuck round before aborting so the
    // abort notification cannot double-schedule a retry.
    ++generation_;
    if (allreduce_.running()) allreduce_.Abort();
    FailRound();
  });
  has_watchdog_event_ = true;
}

void Trainer::CancelRoundWatchdog() {
  if (!has_watchdog_event_) return;
  network_->simulator().Cancel(watchdog_event_);
  has_watchdog_event_ = false;
}

void Trainer::FinishEpoch() {
  if (!running_) return;
  const double now = network_->simulator().Now();

  EpochStats stats;
  // Calculation ends when the TBS is reached; any extra wait for the
  // matchmaking floor counts toward communication. The reported
  // communication span also includes the CPU-side optimizer apply even
  // when delayed parameter updates hide it from the critical path — the
  // paper's monitor measures the full averaging round the same way
  // (Fig. 4's stacked bars), while the throughput keeps the overlap.
  const double calc_end = std::min(tbs_reached_at_, averaging_started_);
  stats.calc_sec = calc_end - epoch_start_;
  stats.comm_sec = now - calc_end;
  if (config_.delayed_parameter_updates) stats.comm_sec += MaxApplySec();
  stats.samples = std::min<double>(accum_samples_, config_.target_batch_size);
  stats.peers = static_cast<int>(peers_.size());
  completed_.push_back(stats);
  last_epoch_end_ = now;

  if (telemetry::Enabled()) {
    const int epoch = static_cast<int>(completed_.size()) - 1;
    const std::string_view epoch_args = IntArgs(&trace_args_, "epoch", epoch);
    telemetry::Span(epoch_start_, calc_end, "trainer", "calc", epoch_args);
    telemetry::Span(calc_end, now, "trainer", "comm", epoch_args);
    if (averaging_started_ > calc_end) {
      telemetry::Span(calc_end, averaging_started_, "trainer",
                      "matchmake-wait", epoch_args);
    }
    // Per-peer timelines: each peer gets its own Perfetto lane showing
    // what it spent the epoch on (syncing peers receive state instead of
    // contributing gradients).
    std::string lane = "peer/";
    for (const PeerState& p : peers_) {
      lane.resize(5);  // Keep "peer/", append this peer's node id.
      AppendInt(&lane, p.spec.node);
      if (p.sync_epochs_left > 0) {
        telemetry::Span(epoch_start_, now, lane, "sync", epoch_args);
      } else {
        telemetry::Span(epoch_start_, calc_end, lane, "accumulate",
                        epoch_args);
        telemetry::Span(averaging_started_, now, lane, "average",
                        epoch_args);
      }
    }
    // Span-aligned phase totals: exactly the durations of the calc,
    // comm, and matchmake-wait spans above (not EpochStats, whose
    // comm_sec can also fold in a delayed optimizer apply). The
    // critical-path analyzer reconciles its phase breakdown against
    // these counters to within 1e-9 sim-seconds.
    telemetry::Count("trainer.calc_sec",
                     calc_end > epoch_start_ ? calc_end - epoch_start_ : 0.0);
    telemetry::Count("trainer.comm_sec", now > calc_end ? now - calc_end : 0.0);
    if (averaging_started_ > calc_end) {
      telemetry::Count("trainer.matchmake_wait_sec",
                       averaging_started_ - calc_end);
    }
    telemetry::Count("trainer.epochs");
    telemetry::Gauge("trainer.averaging_in_flight", 0);
    telemetry::Gauge("trainer.active_peers", ActivePeers());
    double calc_sum = 0;
    double comm_sum = 0;
    for (const EpochStats& e : completed_) {
      calc_sum += e.calc_sec;
      comm_sum += e.comm_sec;
    }
    if (comm_sum > kEpsilon) {
      telemetry::Gauge("trainer.granularity", calc_sum / comm_sum);
    }
  }

  // Dataset ingress: each active peer streamed its share of this epoch.
  const double rate = FleetRate();
  for (PeerState& p : peers_) {
    if (p.sync_epochs_left > 0) {
      --p.sync_epochs_left;
    } else if (rate > kEpsilon && p.ingress) {
      p.ingress->OnSamplesConsumed(stats.samples * p.local_sps / rate);
    }
  }

  averaging_ = false;
  round_retries_ = 0;
  degraded_round_ = false;
  StartEpoch();
}

Status Trainer::RemovePeer(net::NodeId node) {
  auto it = std::find_if(peers_.begin(), peers_.end(),
                         [node](const PeerState& p) {
                           return p.spec.node == node;
                         });
  if (it == peers_.end()) {
    return Status::NotFound("no such peer in the training");
  }
  if (!running_) {
    peers_.erase(it);
    return Status::OK();
  }

  SyncAccumulation();
  // The dead peer's un-averaged contribution is lost with it.
  const double rate = FleetRate();
  if (rate > kEpsilon && it->sync_epochs_left == 0) {
    accum_samples_ *= std::max(0.0, 1.0 - it->local_sps / rate);
  }
  peers_.erase(it);

  if (averaging_ && allreduce_.running()) {
    allreduce_.Abort();  // Its callback restarts the round without him.
  } else if (!averaging_) {
    ScheduleAveraging();
  }
  return Status::OK();
}

Status Trainer::JoinPeer(const PeerSpec& peer) {
  if (!running_) return AddPeer(peer);
  HIVESIM_RETURN_IF_ERROR(models::CheckFits(
      config_.model, models::TrainerKind::kHivemind, peer.gpu, peer.host));
  SyncAccumulation();
  PeerState state;
  state.spec = peer;
  double sps = 0;
  HIVESIM_ASSIGN_OR_RETURN(sps,
                           models::BaselineSps(config_.model, peer.gpu));
  state.local_sps = sps * std::max(1, peer.gpu_count) *
                    models::HivemindLocalPenalty(config_.model);
  state.sync_epochs_left = 2;  // Worst case observed by the paper (Sec. 7).
  const data::DatasetProfile& dataset = data::DatasetFor(config_.model);
  state.ingress = std::make_unique<data::StreamingIngressMeter>(
      dataset.total_samples / (peers_.size() + 1), dataset.sample_bytes);
  peers_.push_back(std::move(state));
  if (!averaging_) ScheduleAveraging();
  return Status::OK();
}

RunStats Trainer::Stats() const {
  RunStats stats;
  stats.epochs = static_cast<int>(completed_.size());
  stats.epoch_stats = completed_;
  stats.duration_sec = last_epoch_end_ - run_start_;
  stats.local_throughput_sps = FleetRate();
  for (const EpochStats& e : completed_) {
    stats.total_samples += e.samples;
    stats.avg_calc_sec += e.calc_sec;
    stats.avg_comm_sec += e.comm_sec;
  }
  if (stats.epochs > 0) {
    stats.avg_calc_sec /= stats.epochs;
    stats.avg_comm_sec /= stats.epochs;
  }
  if (stats.duration_sec > kEpsilon) {
    stats.throughput_sps = stats.total_samples / stats.duration_sec;
  }
  if (stats.avg_comm_sec > kEpsilon) {
    stats.granularity = stats.avg_calc_sec / stats.avg_comm_sec;
  }
  return stats;
}

Result<PeerSpec> Trainer::PeerSpecOf(net::NodeId node) const {
  for (const PeerState& p : peers_) {
    if (p.spec.node == node) return p.spec;
  }
  return Status::NotFound("no such peer");
}

Result<double> Trainer::DataIngressBytes(net::NodeId node) const {
  for (const PeerState& p : peers_) {
    if (p.spec.node == node) {
      return p.ingress ? p.ingress->StreamedBytes() : 0.0;
    }
  }
  return Status::NotFound("no such peer");
}

}  // namespace hivesim::hivemind

#include "hivemind/monitor.h"

#include "telemetry/telemetry.h"

namespace hivesim::hivemind {

void TrainingMonitor::Start() {
  if (running_) return;
  running_ = true;
  Tick();
}

void TrainingMonitor::Stop() { running_ = false; }

void TrainingMonitor::Tick() {
  if (!running_) return;
  if (!trainer_->running() && !snapshots_.empty()) {
    running_ = false;
    return;
  }
  Snapshot snap;
  snap.time = sim_->Now();
  snap.epoch = trainer_->current_epoch();
  snap.progress = trainer_->EpochProgress();
  snap.active_peers = trainer_->ActivePeers();
  const RunStats stats = trainer_->Stats();
  snap.throughput_sps = stats.throughput_sps;
  snap.granularity = stats.granularity;
  snap.averaging_in_flight = trainer_->averaging_in_flight() ? 1 : 0;
  if (telemetry::Enabled()) {
    // Prefer the registry's view when the run is instrumented: it keeps
    // reporting across trainer restarts, where Stats() resets.
    telemetry::MetricsRegistry& metrics = telemetry::Telemetry::metrics();
    snap.granularity =
        metrics.GaugeOr("trainer.granularity", snap.granularity);
    snap.averaging_in_flight = static_cast<int>(metrics.GaugeOr(
        "trainer.averaging_in_flight", snap.averaging_in_flight));
  }
  snapshots_.push_back(snap);
  sim_->Schedule(interval_, [this] { Tick(); });
}

}  // namespace hivesim::hivemind

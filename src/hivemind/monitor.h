#ifndef HIVESIM_HIVEMIND_MONITOR_H_
#define HIVESIM_HIVEMIND_MONITOR_H_

#include <vector>

#include "hivemind/trainer.h"
#include "sim/simulator.h"

namespace hivesim::hivemind {

/// Periodic observer of a running training — the equivalent of the
/// paper's "training monitor that scrapes the DHT every second to log the
/// peer state and training progress" (Section 3).
class TrainingMonitor {
 public:
  /// One observation.
  struct Snapshot {
    double time = 0;       ///< Simulation time of the scrape.
    int epoch = 0;         ///< Completed hivemind epochs.
    double progress = 0;   ///< Current epoch accumulation in [0, 1].
    int active_peers = 0;
    double throughput_sps = 0;  ///< Running global throughput.
    /// Calc/comm ratio so far (the paper's granularity metric); sourced
    /// from the telemetry registry when enabled, from RunStats otherwise.
    double granularity = 0;
    /// 1 while an averaging round is in flight at scrape time, else 0.
    int averaging_in_flight = 0;
  };

  TrainingMonitor(sim::Simulator* sim, const Trainer* trainer,
                  double interval_sec = 1.0)
      : sim_(sim), trainer_(trainer), interval_(interval_sec) {}

  /// Begins scraping; runs until Stop() or the trainer stops.
  void Start();
  void Stop();

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

 private:
  void Tick();

  sim::Simulator* sim_;
  const Trainer* trainer_;
  double interval_;
  bool running_ = false;
  std::vector<Snapshot> snapshots_;
};

}  // namespace hivesim::hivemind

#endif  // HIVESIM_HIVEMIND_MONITOR_H_

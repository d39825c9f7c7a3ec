// Chaos engineering for decentralized training: script a deterministic
// "bad afternoon" against a transatlantic fleet and watch the trainer
// survive it. The scenario pack partitions the US<->EU link (the trainer
// degrades to averaging within the reachable half), then crashes an EU
// peer and brings a replacement back ten minutes later. The pack holds
// no random event, so every run prints the same fault trace and
// fingerprint.
//
//   $ ./build/examples/chaos_demo

#include <iostream>

#include "common/status.h"
#include "common/strings.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  if (argc > 1) {
    std::cerr << Status::InvalidArgument(StrCat(
                     "chaos_demo takes no arguments, got '", argv[1], "'"))
                     .ToString()
              << "\n";
    return 1;
  }

  scenario::ScenarioPack pack;
  pack.name = "bad-afternoon";
  // Minute 20-35: the transatlantic path is gone entirely.
  scenario::WanSpec partition;
  partition.a = {"gc-us"};
  partition.b = {"gc-eu"};
  partition.window = {20 * 60, 15 * 60};
  partition.bandwidth_factor = 0;
  pack.wan.push_back(partition);
  // Minute 45: an EU peer crashes; a replacement is up 10 minutes later.
  scenario::CrashSpec crash;
  crash.peer = 3;
  crash.at = 45 * 60;
  crash.restart_after_sec = 600;
  pack.crashes.push_back(crash);

  core::ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.duration_sec = 90 * 60;

  std::cout << "Fleet: 2x T4 in GC us-central1 + 2x T4 in GC europe-west1, "
               "ConvNext-Large.\n";
  // With a pack the trainer is churn-hardened: stuck rounds abort after
  // 2 minutes and degrade to the largest reachable peer group after two
  // retries.
  auto world = core::BuildExperimentWorld(
      core::ClusterSpec{
          {core::GcT4s(2, net::kGcUs), core::GcT4s(2, net::kGcEu)}},
      config, &pack);
  if (!world.ok()) {
    std::cerr << world.status().ToString() << "\n";
    return 1;
  }
  core::ExperimentWorld& w = **world;
  if (auto s = w.trainer->Start(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  // Watch the first simulated 90 minutes in 10-minute strides.
  double prev_samples = 0;
  std::cout << "\nThroughput per 10-minute window:\n";
  for (int window = 1; window <= 9; ++window) {
    w.sim.RunUntil(window * 600.0);
    const double samples = w.trainer->Stats().total_samples;
    std::cout << StrFormat("  min %2d-%2d: %6.1f SPS  (%d peers, epoch %d)\n",
                           (window - 1) * 10, window * 10,
                           (samples - prev_samples) / 600.0,
                           w.trainer->ActivePeers(),
                           w.trainer->current_epoch());
    prev_samples = samples;
  }
  w.trainer->Stop();

  std::cout << "\nInjected fault timeline:\n";
  for (const auto& entry : w.chaos->trace()) {
    std::cout << StrFormat("  [%6.0fs] %s\n", entry.at_sec,
                           entry.event.c_str());
  }
  const hivemind::RunStats stats = w.trainer->Stats();
  std::cout << StrFormat(
      "\n%d epochs, %.1f SPS overall; %d crash, %d restart, %d WAN "
      "window(s).\n",
      stats.epochs, stats.throughput_sps, w.chaos->stats().crashes,
      w.chaos->stats().restarts, w.chaos->stats().wan_degradations);
  std::cout << StrFormat(
      "Fault trace fingerprint: %016llx\n",
      static_cast<unsigned long long>(w.chaos->TraceFingerprint()));
  std::cout << "The partition window degrades throughput but never stalls "
               "the run; the crashed peer's replacement re-syncs and "
               "contributes again.\n";
  return 0;
}

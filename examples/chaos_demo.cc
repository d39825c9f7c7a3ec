// Chaos engineering for decentralized training: script a deterministic
// "bad afternoon" against a transatlantic fleet and watch the trainer
// survive it. The schedule partitions the US<->EU link (the trainer
// degrades to averaging within the reachable half), then crashes an EU
// peer and brings a replacement back ten minutes later. Every event is
// replayed from a seed: run the demo twice and the trace fingerprints
// match bit for bit.
//
//   $ ./build/examples/chaos_demo [seed=7]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "faults/chaos.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);

  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.seed = seed;
  // The churn-hardened averaging loop: stuck rounds abort after 2 minutes
  // and degrade to the largest reachable peer group after two retries.
  hivemind::Trainer trainer(&network, hivemind::ChurnHardened(config));

  std::cout << "Fleet: 2x T4 in GC us-central1 + 2x T4 in GC europe-west1, "
               "ConvNext-Large.\n";
  std::vector<hivemind::PeerSpec> peers;
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec peer;
    peer.node =
        topo.AddNode(i < 2 ? net::kGcUs : net::kGcEu, net::CloudVmNetConfig());
    if (auto s = trainer.AddPeer(peer); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
    peers.push_back(peer);
  }

  faults::ChaosInjector injector(&sim, &topo, &network, seed);
  injector.AttachTrainer(&trainer);
  faults::ChaosSchedule schedule;
  // Minute 20-35: the transatlantic path is gone entirely.
  schedule.Partition(net::kGcUs, net::kGcEu, 20 * 60, 15 * 60);
  // Minute 45: an EU peer crashes; a replacement is up 10 minutes later.
  schedule.CrashNode(peers[3].node, 45 * 60, /*restart_after_sec=*/600);
  if (auto s = injector.Arm(schedule); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  if (auto s = trainer.Start(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  // Watch the first simulated 90 minutes in 10-minute strides.
  double prev_samples = 0;
  std::cout << "\nThroughput per 10-minute window:\n";
  for (int w = 1; w <= 9; ++w) {
    sim.RunUntil(w * 600.0);
    const double samples = trainer.Stats().total_samples;
    std::cout << StrFormat("  min %2d-%2d: %6.1f SPS  (%d peers, epoch %d)\n",
                           (w - 1) * 10, w * 10,
                           (samples - prev_samples) / 600.0,
                           trainer.ActivePeers(), trainer.current_epoch());
    prev_samples = samples;
  }
  trainer.Stop();

  std::cout << "\nInjected fault timeline:\n";
  for (const auto& entry : injector.trace()) {
    std::cout << StrFormat("  [%6.0fs] %s\n", entry.at_sec,
                           entry.event.c_str());
  }
  const hivemind::RunStats stats = trainer.Stats();
  std::cout << StrFormat(
      "\n%d epochs, %.1f SPS overall; %d crash, %d restart, %d WAN "
      "window(s).\n",
      stats.epochs, stats.throughput_sps, injector.stats().crashes,
      injector.stats().restarts, injector.stats().wan_degradations);
  std::cout << StrFormat(
      "Replay fingerprint (seed %llu): %016llx — run again with the same "
      "seed and it matches bit for bit.\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(injector.TraceFingerprint()));
  std::cout << "The partition window degrades throughput but never stalls "
               "the run; the crashed peer's replacement re-syncs and "
               "contributes again.\n";
  return 0;
}

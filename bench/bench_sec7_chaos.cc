// Scripted Section 7 "bad day": an 8xT4 transatlantic CV fleet trains
// for a simulated day while a chaos schedule replays every failure mode
// the paper discusses — a spot capacity crunch reclaiming the US half of
// the fleet, a degraded transatlantic link, a full US<->EU partition
// (survived by degrading to the reachable partition), and a churn burst
// with replacements. Throughput per 2-hour bucket shows the degradation
// and the recovery; the whole day replays bit-identically for a fixed
// seed, which is the point of scripting chaos instead of sampling it.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "cloud/spot_market.h"
#include "cloud/vm.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "faults/chaos.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"

namespace {

using namespace hivesim;

constexpr int kBuckets = 12;
constexpr double kBucketSec = 2 * kHour;

struct ChaosRun {
  double bucket_sps[kBuckets] = {};
  double total_samples = 0;
  int epochs = 0;
  int interruptions = 0;
  faults::ChaosStats chaos;
  uint64_t fingerprint = 0;
};

ChaosRun RunDay(uint64_t seed, bool with_chaos) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);

  cloud::SpotMarketConfig market_config;
  market_config.base_monthly_interruption_rate = 0.10;
  cloud::SpotMarket market(Rng(seed), market_config);

  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.seed = seed;
  // Churn hardening: rounds frozen by the partition abort and degrade to
  // the surviving partition.
  hivemind::Trainer trainer(&network, hivemind::ChurnHardened(config));

  constexpr int kVmsPerSite = 4;
  const net::SiteId sites[2] = {net::kGcUs, net::kGcEu};
  const net::Continent continents[2] = {net::Continent::kUs,
                                        net::Continent::kEu};
  std::vector<hivemind::PeerSpec> peers;
  std::vector<std::unique_ptr<cloud::VmInstance>> vms;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < kVmsPerSite; ++i) {
      hivemind::PeerSpec peer;
      peer.node = topo.AddNode(sites[s], net::CloudVmNetConfig());
      peers.push_back(peer);
      if (!trainer.AddPeer(peer).ok()) return {};

      cloud::VmInstance::Config vm_config;
      vm_config.spot = true;
      vm_config.auto_restart = true;
      vm_config.interruptible = true;
      auto vm = std::make_unique<cloud::VmInstance>(&sim, &market,
                                                    continents[s], vm_config);
      cloud::VmInstance* vm_ptr = vm.get();
      vm_ptr->on_interrupted = [&trainer, peer] {
        trainer.RemovePeer(peer.node).ok();
      };
      vm_ptr->on_running = [&trainer, peer, vm_ptr] {
        if (vm_ptr->interruptions() > 0) trainer.JoinPeer(peer).ok();
      };
      vms.push_back(std::move(vm));
    }
  }

  // Arm before the VMs draw interruption times so the storm is part of
  // their hazard from the first draw.
  faults::ChaosInjector injector(&sim, &topo, &network, seed);
  injector.AttachSpotMarket(&market);
  injector.AttachTrainer(&trainer);
  if (with_chaos) {
    faults::ChaosSchedule schedule;
    // Hours 2-4: a capacity crunch reclaims US spot VMs.
    schedule.SpotStorm(net::Continent::kUs, 2 * kHour, 2 * kHour, 5000.0);
    // Hours 10-12: the transatlantic link degrades to 10% + 100 ms.
    schedule.DegradeWan(net::kGcUs, net::kGcEu, 10 * kHour, 2 * kHour, 0.10,
                        MsToSec(100));
    // Hour 16-17: full US<->EU partition.
    schedule.Partition(net::kGcUs, net::kGcEu, 16 * kHour, 1 * kHour);
    // Hours 20-21: a churn burst crashes two EU peers, back 10 min later.
    schedule.CrashStorm({peers[4].node, peers[5].node, peers[6].node},
                        20 * kHour, 1 * kHour, /*crashes=*/2,
                        /*restart_after_sec=*/600);
    if (!injector.Arm(schedule).ok()) return {};
  }

  for (auto& vm : vms) vm->Start();
  sim.RunUntil(market.config().vm_startup_max_sec + 1);
  if (!trainer.Start().ok()) return {};

  ChaosRun run;
  const double start = sim.Now();
  double prev_samples = 0;
  for (int b = 0; b < kBuckets; ++b) {
    sim.RunUntil(start + (b + 1) * kBucketSec);
    const double samples = trainer.Stats().total_samples;
    run.bucket_sps[b] = (samples - prev_samples) / kBucketSec;
    prev_samples = samples;
  }
  trainer.Stop();
  for (auto& vm : vms) vm->Stop();

  const hivemind::RunStats stats = trainer.Stats();
  run.total_samples = stats.total_samples;
  run.epochs = stats.epochs;
  for (auto& vm : vms) run.interruptions += vm->interruptions();
  run.chaos = injector.stats();
  run.fingerprint = injector.TraceFingerprint();
  return run;
}

const char* BucketEvent(int bucket) {
  switch (bucket) {
    case 1: return "US spot storm (h2-4)";
    case 5: return "WAN degraded 10% +100ms (h10-12)";
    case 8: return "US<->EU partition (h16-17)";
    case 10: return "EU crash burst (h20-21)";
    default: return "";
  }
}

ChaosRun PrintChaos() {
  bench::PrintHeading(
      "Section 7: scripted chaos day (4xT4 US + 4xT4 EU, CV, 24h)");
  const ChaosRun calm = RunDay(7, /*with_chaos=*/false);
  const ChaosRun chaos = RunDay(7, /*with_chaos=*/true);

  TableWriter table({"Hours", "Scripted fault", "Calm SPS", "Chaos SPS",
                     "Penalty"});
  for (int b = 0; b < kBuckets; ++b) {
    const double penalty =
        calm.bucket_sps[b] > 0
            ? (1.0 - chaos.bucket_sps[b] / calm.bucket_sps[b]) * 100
            : 0.0;
    table.AddRow({StrFormat("%02d-%02d", 2 * b, 2 * b + 2), BucketEvent(b),
                  StrFormat("%.1f", calm.bucket_sps[b]),
                  StrFormat("%.1f", chaos.bucket_sps[b]),
                  StrFormat("%.0f%%", penalty)});
  }
  table.Print(std::cout);
  std::cout << StrFormat(
      "Chaos day: %d epochs, %d spot interruptions, %d crashes "
      "(%d restarted), %d WAN windows applied/%d recovered.\n",
      chaos.epochs, chaos.interruptions, chaos.chaos.crashes,
      chaos.chaos.restarts, chaos.chaos.wan_degradations,
      chaos.chaos.wan_recoveries);

  // The chaos subsystem's contract: a fixed seed replays the whole day
  // bit-identically (event trace and training outcome).
  const ChaosRun replay = RunDay(7, /*with_chaos=*/true);
  const bool identical = replay.fingerprint == chaos.fingerprint &&
                         replay.total_samples == chaos.total_samples &&
                         replay.epochs == chaos.epochs;
  std::cout << StrFormat(
      "Deterministic replay (seed 7): fingerprint %016llx, %s\n",
      static_cast<unsigned long long>(chaos.fingerprint),
      identical ? "bit-identical" : "MISMATCH");
  std::cout << "Throughput collapses inside each fault window and recovers "
               "after it; the partition hour survives by averaging within "
               "the reachable half of the fleet.\n";
  return chaos;
}

void BM_ChaosDay(benchmark::State& state) {
  const bool with_chaos = state.range(0) != 0;
  for (auto _ : state) {
    const ChaosRun run = RunDay(7, with_chaos);
    state.counters["sps"] = run.total_samples / (24.0 * kHour);
  }
}
BENCHMARK(BM_ChaosDay)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "chaos");
  const ChaosRun chaos = PrintChaos();
  // The 64-bit trace fingerprint is split into 32-bit halves: check
  // values live in JSON doubles, which are only exact up to 2^53.
  perf.AddCheck("chaos_fingerprint_hi",
                static_cast<double>(chaos.fingerprint >> 32));
  perf.AddCheck("chaos_fingerprint_lo",
                static_cast<double>(chaos.fingerprint & 0xffffffffu));
  perf.AddCheck("chaos_epochs", static_cast<double>(chaos.epochs));
  perf.AddCheck("chaos_total_samples", chaos.total_samples);
  return perf.RunAndReport(&argc, argv);
}

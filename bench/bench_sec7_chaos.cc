// Scripted Section 7 "bad day": an 8xT4 transatlantic CV fleet trains
// for a simulated day while a scenario pack replays every failure mode
// the paper discusses — a spot capacity crunch reclaiming the US half of
// the fleet, a degraded transatlantic link, a full US<->EU partition
// (survived by degrading to the reachable partition), and a churn burst
// with replacements. Throughput per 2-hour bucket shows the degradation
// and the recovery; the whole day replays bit-identically for a fixed
// seed, which is the point of scripting chaos instead of sampling it.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>

#include "bench_util.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "core/experiment.h"
#include "scenario/scenario.h"

namespace {

using namespace hivesim;

constexpr int kBuckets = 12;
constexpr double kBucketSec = 2 * kHour;

// Both days run on the same spot market (10% monthly interruptions).
constexpr char kCalmDay[] = R"({
  "schema": "hivesim-scenario/1",
  "name": "sec7-calm-day",
  "spot_market": {"monthly_interruption_rate": 0.10}
})";

// Hours 2-4: a capacity crunch reclaims US spot VMs. Hours 10-12: the
// transatlantic link degrades to 10% + 100 ms. Hour 16-17: full US<->EU
// partition. Hours 20-21: a churn burst crashes two of the first three
// EU peers, each back 10 min later.
constexpr char kChaosDay[] = R"({
  "schema": "hivesim-scenario/1",
  "name": "sec7-chaos-day",
  "spot_market": {"monthly_interruption_rate": 0.10},
  "wan": [
    {"a": "gc-us", "b": "gc-eu", "start": 36000, "duration": 7200,
     "bandwidth_factor": 0.10, "extra_rtt_ms": 100},
    {"a": "gc-us", "b": "gc-eu", "start": 57600, "duration": 3600,
     "bandwidth_factor": 0}
  ],
  "spot_storms": [
    {"zone": "US", "start": 7200, "duration": 7200, "hazard_multiplier": 5000}
  ],
  "crash_storms": [
    {"peers": [4, 5, 6], "start": 72000, "duration": 3600, "crashes": 2,
     "restart_after_sec": 600}
  ]
})";

scenario::ScenarioPack ParsePack(const char* json) {
  auto pack = scenario::ParseScenario(json);
  if (!pack.ok()) {
    std::cerr << pack.status().ToString() << "\n";
    std::exit(1);
  }
  return *pack;
}

struct ChaosRun {
  double bucket_sps[kBuckets] = {};
  double total_samples = 0;
  int epochs = 0;
  int interruptions = 0;
  faults::ChaosStats chaos;
  uint64_t fingerprint = 0;
};

ChaosRun RunDay(uint64_t seed, const scenario::ScenarioPack& pack) {
  const core::ClusterSpec fleet{
      {core::GcT4s(4, net::kGcUs), core::GcT4s(4, net::kGcEu)}};
  core::ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.duration_sec = kBuckets * kBucketSec;
  config.seed = seed;
  // The world comes back with its spot VMs booted and the pack armed;
  // rounds frozen by the partition abort and degrade to the surviving
  // partition (churn hardening).
  auto built = core::BuildExperimentWorld(fleet, config, &pack);
  if (!built.ok()) return {};
  core::ExperimentWorld& world = **built;
  hivemind::Trainer& trainer = *world.trainer;
  if (!trainer.Start().ok()) return {};

  ChaosRun run;
  const double start = world.sim.Now();
  double prev_samples = 0;
  for (int b = 0; b < kBuckets; ++b) {
    world.sim.RunUntil(start + (b + 1) * kBucketSec);
    const double samples = trainer.Stats().total_samples;
    run.bucket_sps[b] = (samples - prev_samples) / kBucketSec;
    prev_samples = samples;
  }
  trainer.Stop();

  const hivemind::RunStats stats = trainer.Stats();
  run.total_samples = stats.total_samples;
  run.epochs = stats.epochs;
  for (const auto& vm : world.vms) run.interruptions += vm->interruptions();
  run.chaos = world.chaos->stats();
  run.fingerprint = world.chaos->TraceFingerprint();
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
  const scenario::ScenarioPack chaos_day = ParsePack(kChaosDay);
  const ChaosRun calm = RunDay(7, ParsePack(kCalmDay));
  const ChaosRun chaos = RunDay(7, chaos_day);

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
  const ChaosRun replay = RunDay(7, chaos_day);
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
  const scenario::ScenarioPack pack =
      ParsePack(state.range(0) != 0 ? kChaosDay : kCalmDay);
  for (auto _ : state) {
    const ChaosRun run = RunDay(7, pack);
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

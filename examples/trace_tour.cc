// Telemetry tour: run a two-continent training under chaos with the full
// observability stack enabled, and write a Perfetto-loadable Chrome trace
// plus a metrics snapshot. The trace shows one lane per subsystem (net,
// dht, collective, trainer, chaos, ...) and one lane per peer, so the
// calc/comm split, matchmaking waits, WAN partition, and crash/restart
// churn are all visible on a single timeline.
//
//   $ ./build/examples/trace_tour [--seed=7] [--trace-out=PATH]
//                                 [--metrics-out=PATH]
//
// Open the trace at https://ui.perfetto.dev (or chrome://tracing), or
// summarize it with scripts/trace_summary.py. Everything is stamped with
// simulation time only: two runs with the same seed write byte-identical
// files.

#include <iostream>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dht/dht.h"
#include "faults/chaos.h"
#include "hivemind/monitor.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

int main(int argc, char** argv) {
  using namespace hivesim;
  constexpr double kRunSec = 90 * 60.0;

  FlagSet flags;
  if (auto s = flags.Parse(argc, argv); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  if (auto s = flags.CheckKnown({"seed", "trace-out", "metrics-out"});
      !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  if (!flags.positional().empty()) {
    std::cerr << Status::InvalidArgument(StrCat("unexpected argument '",
                                                flags.positional()[0], "'"))
                     .ToString()
              << "\n";
    return 1;
  }
  auto seed_flag =
      ParseUint64Arg("flag --seed", flags.GetString("seed", "7"));
  if (!seed_flag.ok()) {
    std::cerr << seed_flag.status().ToString() << "\n";
    return 1;
  }
  const uint64_t seed = *seed_flag;
  const std::string trace_path =
      flags.GetString("trace-out", "trace_tour.trace.json");
  const std::string metrics_path =
      flags.GetString("metrics-out", "trace_tour.metrics.json");

  telemetry::Telemetry::Enable();
  telemetry::Telemetry::Reset();

  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);

  std::cout << "Fleet: 2x T4 in GC us-central1 + 2x T4 in GC europe-west1, "
               "ConvNext-Large, DHT matchmaking, chaos armed.\n";
  std::vector<hivemind::PeerSpec> peers;
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec peer;
    peer.node =
        topo.AddNode(i < 2 ? net::kGcUs : net::kGcEu, net::CloudVmNetConfig());
    peers.push_back(peer);
  }

  // Real DHT matchmaking, so lookup spans appear on the "dht" lane.
  dht::DhtNetwork dht(&network);
  Rng id_rng(seed);
  std::vector<dht::Node*> dht_nodes;
  for (const auto& p : peers) {
    dht_nodes.push_back(dht.CreateNode(p.node, id_rng.Next64()));
  }
  for (size_t i = 1; i < dht_nodes.size(); ++i) {
    dht_nodes[i]->Bootstrap(
        dht::Contact{dht_nodes[0]->id(), dht_nodes[0]->endpoint()},
        [](std::vector<dht::Contact>) {});
    sim.Run();
  }

  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.seed = seed;
  config.dht = &dht;
  config.churn_hardened = true;

  hivemind::Trainer trainer(&network, config);
  for (const auto& peer : peers) {
    if (auto s = trainer.AddPeer(peer); !s.ok()) {
      std::cerr << s.ToString() << "\n";
      return 1;
    }
  }

  faults::ChaosInjector injector(&sim, &topo, &network, seed);
  injector.AttachTrainer(&trainer);
  injector.AttachDht(&dht);
  scenario::ScenarioPack pack;
  pack.name = "trace-tour";
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
  std::vector<scenario::FleetMember> members;
  for (const auto& peer : peers) {
    const net::SiteId site = topo.SiteOf(peer.node);
    members.push_back({peer.node, site, topo.site(site).continent});
  }
  auto schedule = scenario::Compile(
      pack, scenario::MakeFleetView(std::move(members)), kRunSec);
  if (!schedule.ok()) {
    std::cerr << schedule.status().ToString() << "\n";
    return 1;
  }
  if (auto s = injector.Arm(*schedule); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }

  hivemind::TrainingMonitor monitor(&sim, &trainer, /*interval_sec=*/30.0);
  if (auto s = trainer.Start(); !s.ok()) {
    std::cerr << s.ToString() << "\n";
    return 1;
  }
  monitor.Start();
  sim.RunUntil(kRunSec);
  trainer.Stop();
  monitor.Stop();

  const hivemind::RunStats stats = trainer.Stats();
  const telemetry::MetricsRegistry& metrics = telemetry::Telemetry::metrics();
  const telemetry::TraceRecorder& trace = telemetry::Telemetry::trace();
  std::cout << StrFormat(
      "\n90 simulated minutes: %d epochs, %.1f SPS, granularity %.2f.\n",
      stats.epochs, stats.throughput_sps, stats.granularity);
  std::cout << StrFormat(
      "Recorded %zu trace events on %zu lanes; %.0f sim events fired, "
      "%.0f flows completed, %.0f DHT lookups, %.0f chaos events.\n",
      trace.size(), trace.lanes().size(),
      metrics.CounterValue("sim.events_fired"),
      metrics.CounterValue("net.flows_completed"),
      metrics.CounterValue("dht.lookups"),
      metrics.CounterValue("chaos.events"));

  if (!trace.WriteChromeJson(trace_path)) {
    std::cerr << "cannot write " << trace_path << "\n";
    return 1;
  }
  if (!metrics.WriteJson(metrics_path)) {
    std::cerr << "cannot write " << metrics_path << "\n";
    return 1;
  }
  std::cout << "\nWrote " << trace_path << " (open in "
            << "https://ui.perfetto.dev) and " << metrics_path << ".\n";
  std::cout << "Try: python3 scripts/trace_summary.py " << trace_path
            << " --top 10\n";
  return 0;
}

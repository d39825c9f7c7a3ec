// Kernel microbenchmark for the flow-level network simulation: many-flow
// churn on the paper's multicloud topology. Every StartFlow / completion /
// CancelFlow dirties the max-min fair-share solver's component, solved
// once per instant, so flow-events/sec here is the number that bounds how
// large a fleet `hivesim sweep` can push through the simulator (see
// docs/PERFORMANCE.md for the before/after trajectory of the solver).
//
// The churn scenario is fully seeded: the same seed must produce the
// same delivered-byte meters and completion count on every run. The
// CHURN_DETERMINISM check at startup enforces that (ci.sh runs this
// binary as its perf-smoke stage and fails on any mismatch).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace {

using namespace hivesim;

// One churn run: keep `concurrent` flows in flight between random node
// pairs of a multicloud fleet until `total_flows` have been started; a
// slice of in-flight flows is cancelled mid-run to exercise the removal
// path. Returns a fingerprint of the final meter state.
struct ChurnResult {
  double total_bytes = 0;
  uint64_t completions = 0;
  uint64_t events_fired = 0;
};

ChurnResult RunChurn(int concurrent, int total_flows, uint64_t seed) {
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  // 8 VMs per site across the multicloud sites the paper's Section 6
  // spans; flows between random pairs contend on NICs and WAN paths.
  std::vector<net::NodeId> nodes;
  const size_t num_sites = topo.num_sites();
  for (net::SiteId site = 0; site < num_sites; ++site) {
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(topo.AddNode(site, net::CloudVmNetConfig()));
    }
  }
  net::Network network(&sim, &topo);
  Rng rng(seed);

  ChurnResult result;
  int started = 0;
  std::vector<net::FlowId> inflight;

  std::function<void()> launch = [&] {
    if (started >= total_flows) return;
    ++started;
    const net::NodeId src =
        nodes[static_cast<size_t>(rng.UniformInt(0, nodes.size() - 1))];
    net::NodeId dst =
        nodes[static_cast<size_t>(rng.UniformInt(0, nodes.size() - 1))];
    if (dst == src) dst = nodes[(src + 1) % nodes.size()];
    const double bytes = rng.Uniform(2 * kMB, 64 * kMB);
    auto id = network.StartFlow(src, dst, bytes, [&] {
      ++result.completions;
      launch();
    });
    if (id.ok()) inflight.push_back(*id);
  };
  for (int i = 0; i < concurrent; ++i) launch();

  // Cancel storms: every 0.25 s of sim time, abort a few in-flight flows
  // (spot preemptions / churn) and backfill.
  std::function<void()> cancel_tick = [&] {
    for (int k = 0; k < 4 && !inflight.empty(); ++k) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, inflight.size() - 1));
      const net::FlowId victim = inflight[pick];
      inflight[pick] = inflight.back();
      inflight.pop_back();
      if (network.CancelFlow(victim)) launch();
    }
    if (started < total_flows) sim.Schedule(0.25, cancel_tick);
  };
  sim.Schedule(0.25, cancel_tick);

  sim.Run();
  for (net::NodeId n = 0; n < nodes.size(); ++n) {
    result.total_bytes += network.NodeEgressBytes(n);
  }
  result.events_fired = sim.events_fired();
  return result;
}

void BM_FlowChurn(benchmark::State& state) {
  const int concurrent = static_cast<int>(state.range(0));
  const int total_flows = concurrent * 8;
  uint64_t flow_events = 0;
  for (auto _ : state) {
    ChurnResult r = RunChurn(concurrent, total_flows, /*seed=*/17);
    benchmark::DoNotOptimize(r.total_bytes);
    flow_events += r.completions;
  }
  state.SetItemsProcessed(static_cast<int64_t>(flow_events));
  state.counters["flow_completions/s"] = benchmark::Counter(
      static_cast<double>(flow_events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlowChurn)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Steady-state solver cost without churn: N long-lived flows, one short
// flow arriving/finishing repeatedly — the arrival must not pay for the
// whole fleet when it only shares resources with a small component.
void BM_ArrivalOnBusyFleet(benchmark::State& state) {
  const int resident = static_cast<int>(state.range(0));
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  std::vector<net::NodeId> nodes;
  for (net::SiteId site = 0; site < topo.num_sites(); ++site) {
    for (int i = 0; i < (resident / 4) + 2; ++i) {
      nodes.push_back(topo.AddNode(site, net::CloudVmNetConfig()));
    }
  }
  net::Network network(&sim, &topo);
  // Resident flows on disjoint node pairs: each is its own fair-share
  // component, so an unrelated arrival should touch none of them.
  for (int i = 0; i + 1 < resident * 2 && i + 1 < (int)nodes.size();
       i += 2) {
    // hivesim-lint: allow(S1) reason=benchmark load generator; node pairs are valid by construction and a failed flow only shrinks the background load
    (void)network.StartFlow(nodes[i], nodes[i + 1], 1e18, nullptr);
  }
  const net::NodeId a = nodes[nodes.size() - 2];
  const net::NodeId b = nodes[nodes.size() - 1];
  int64_t arrivals = 0;
  for (auto _ : state) {
    bool done = false;
    // hivesim-lint: allow(S1) reason=benchmark hot loop; DoNotOptimize(done) already fails the run visibly if the flow never starts
    (void)network.StartFlow(a, b, 4 * kMB, [&] { done = true; });
    sim.RunUntil(sim.Now() + 60.0);
    benchmark::DoNotOptimize(done);
    ++arrivals;
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ArrivalOnBusyFleet)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// One all-reduce-like stage: K senders in one site open a transfer each
// into one receiver, all in the same callback, and the stage runs to
// completion. Every flow is bound by the receiver's NIC at the same fair
// share, so all K finish at one instant too: with per-instant coalescing
// the stage costs one solve at the start and none at the end, and no
// completion event is ever cancelled.
class SameInstantWorld {
 public:
  explicit SameInstantWorld(int senders)
      : topo_(net::StandardWorld()), network_(&sim_, &topo_) {
    receiver_ = topo_.AddNode(0, net::CloudVmNetConfig());
    for (int i = 0; i < senders; ++i) {
      senders_.push_back(topo_.AddNode(0, net::CloudVmNetConfig()));
    }
  }

  /// Runs one stage and returns the completions it saw.
  uint64_t RunStage() {
    uint64_t completions = 0;
    sim_.Schedule(0, [&] {
      for (const net::NodeId src : senders_) {
        // hivesim-lint: allow(S1) reason=benchmark load generator; endpoints are valid by construction and the completion count check catches a flow that never starts
        (void)network_.StartFlow(src, receiver_, 16 * kMB,
                                 [&completions] { ++completions; });
      }
    });
    sim_.Run();
    return completions;
  }

  double TotalEgressBytes() const {
    double total = 0;
    for (const net::NodeId n : senders_) total += network_.NodeEgressBytes(n);
    return total;
  }

 private:
  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
  net::NodeId receiver_ = 0;
  std::vector<net::NodeId> senders_;
};

void BM_SameInstantBatch(benchmark::State& state) {
  SameInstantWorld world(static_cast<int>(state.range(0)));
  uint64_t completions = 0;
  for (auto _ : state) {
    const uint64_t stage = world.RunStage();
    benchmark::DoNotOptimize(stage);
    completions += stage;
  }
  state.SetItemsProcessed(static_cast<int64_t>(completions));
}
BENCHMARK(BM_SameInstantBatch)->Arg(64)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

// The 512-sender stage's fingerprint for the perf gate, run under private
// telemetry sinks so the kernel's cancel counter can be read.
struct BatchCheck {
  double completions = 0;
  double events_cancelled = 0;
  double total_bytes = 0;
};

BatchCheck CheckSameInstantBatch() {
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
  SameInstantWorld world(512);
  BatchCheck check;
  check.completions = static_cast<double>(world.RunStage());
  check.events_cancelled = metrics.CounterValue("sim.events_cancelled");
  check.total_bytes = world.TotalEgressBytes();
  return check;
}

// Same-seed runs must be bit-reproducible; ci.sh treats a mismatch here
// as a perf-smoke failure.
ChurnResult CheckChurnDeterminism() {
  const ChurnResult a = RunChurn(128, 512, 17);
  const ChurnResult b = RunChurn(128, 512, 17);
  if (a.total_bytes != b.total_bytes || a.completions != b.completions ||
      a.events_fired != b.events_fired) {
    std::fprintf(stderr,
                 "CHURN_DETERMINISM FAILED: bytes %.17g vs %.17g, "
                 "completions %llu vs %llu, events %llu vs %llu\n",
                 a.total_bytes, b.total_bytes,
                 (unsigned long long)a.completions,
                 (unsigned long long)b.completions,
                 (unsigned long long)a.events_fired,
                 (unsigned long long)b.events_fired);
    std::exit(1);
  }
  std::printf("CHURN_DETERMINISM OK (%llu completions, %llu events)\n",
              (unsigned long long)a.completions,
              (unsigned long long)a.events_fired);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "kernel_net");
  const ChurnResult churn = CheckChurnDeterminism();
  perf.AddCheck("churn_total_bytes", churn.total_bytes);
  perf.AddCheck("churn_completions", static_cast<double>(churn.completions));
  perf.AddCheck("churn_events_fired",
                static_cast<double>(churn.events_fired));
  const BatchCheck batch = CheckSameInstantBatch();
  perf.AddCheck("same_instant_completions", batch.completions);
  perf.AddCheck("same_instant_events_cancelled", batch.events_cancelled);
  perf.AddCheck("same_instant_total_bytes", batch.total_bytes);
  return perf.RunAndReport(&argc, argv);
}

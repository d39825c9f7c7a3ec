// Kernel microbenchmark for the telemetry layer: recording trace spans
// and rendering a recorder to Chrome JSON plus a metrics snapshot.
// `hivesim fuzz` records every world twice; its trace-identity oracle
// compares the two recordings (`TraceRecorder::SameRecording`) without
// rendering them, so recording bounds the fuzz campaign with the sinks
// on, and rendering is what `--trace-out` and `--analysis-out` pay.
//
//   BM_TraceRecord/N  N flows between sites of the paper's multicloud
//                     world run to completion under private sinks, so
//                     `net::Network` records N flow-complete spans (name
//                     "flow a->b", args with %.0f bytes and both zones)
//                     exactly as it does in any world.
//   BM_TraceRender    `ToChromeJson` + `MetricsRegistry::ToJson` of one
//                     fixed recorder (the 1024-flow run's).
//
// The checks are the rendered sizes and FNV-1a hashes of the rendered
// text, so any byte the renderers or the recording sites change fails
// the perf gate, not just a slowdown.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/units.h"
#include "net/network.h"
#include "net/profiles.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"

namespace {

using namespace hivesim;

// One recording world: 8 VMs in each standard site. Flow i runs between
// two VMs of different sites, with a byte count that is not a whole
// number so the spans' %.0f rounding is exercised. The flows run one
// after another (each completion starts the next), so every solve is a
// one-flow component and the recording, not the solver, is the bulk of
// the work.
class RecordWorld {
 public:
  RecordWorld() : topo_(net::StandardWorld()), network_(&sim_, &topo_) {
    for (net::SiteId site = 0; site < topo_.num_sites(); ++site) {
      for (int i = 0; i < 8; ++i) {
        nodes_.push_back(topo_.AddNode(site, net::CloudVmNetConfig()));
      }
    }
  }

  /// Runs `flows` flows back to back; returns how many completed.
  int Run(int flows) {
    flows_ = flows;
    started_ = 0;
    completed_ = 0;
    StartNext();
    sim_.Run();
    return completed_;
  }

 private:
  void StartNext() {
    if (started_ == flows_) return;
    const size_t i = static_cast<size_t>(started_++);
    const size_t n = nodes_.size();
    const double bytes = 4 * kMB + 1000.5 * static_cast<double>(i);
    // hivesim-lint: allow(S1) reason=benchmark load generator; endpoints are valid by construction and the completion count check catches a flow that never starts
    (void)network_.StartFlow(nodes_[i % n], nodes_[(i * 7 + 11) % n], bytes,
                             [this] {
                               ++completed_;
                               StartNext();
                             });
  }

  sim::Simulator sim_;
  net::Topology topo_;
  net::Network network_;
  std::vector<net::NodeId> nodes_;
  int flows_ = 0;
  int started_ = 0;
  int completed_ = 0;
};

void BM_TraceRecord(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  RecordWorld world;
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);
  int64_t spans = 0;
  for (auto _ : state) {
    trace.Clear();
    const int completed = world.Run(flows);
    benchmark::DoNotOptimize(trace.size());
    spans += completed;
  }
  state.SetItemsProcessed(spans);
}
BENCHMARK(BM_TraceRecord)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

// The fixed recorder BM_TraceRender renders: one 1024-flow run.
struct FixedSinks {
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  int completed = 0;
};

FixedSinks RecordFixed() {
  FixedSinks sinks;
  telemetry::Telemetry::ScopedSinks scope(&sinks.trace, &sinks.metrics);
  RecordWorld world;
  sinks.completed = world.Run(1024);
  return sinks;
}

const FixedSinks& Fixed() {
  static const FixedSinks fixed = RecordFixed();
  return fixed;
}

void BM_TraceRender(benchmark::State& state) {
  const FixedSinks& fixed = Fixed();
  int64_t bytes = 0;
  for (auto _ : state) {
    const std::string trace = fixed.trace.ToChromeJson();
    const std::string metrics = fixed.metrics.ToJson();
    benchmark::DoNotOptimize(trace.data());
    benchmark::DoNotOptimize(metrics.data());
    bytes += static_cast<int64_t>(trace.size() + metrics.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TraceRender)->Unit(benchmark::kMicrosecond);

// 32-bit FNV-1a: a check value must be exact as a double.
double Fnv1a32(std::string_view text) {
  uint32_t h = 2166136261u;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return static_cast<double>(h);
}

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::PerfJsonScope perf(&argc, argv, "kernel_telemetry");
  const FixedSinks& fixed = Fixed();
  const std::string trace = fixed.trace.ToChromeJson();
  const std::string metrics = fixed.metrics.ToJson();
  perf.AddCheck("record_completions", fixed.completed);
  perf.AddCheck("record_events", static_cast<double>(fixed.trace.size()));
  perf.AddCheck("render_trace_bytes", static_cast<double>(trace.size()));
  perf.AddCheck("render_trace_fnv1a32", Fnv1a32(trace));
  perf.AddCheck("render_metrics_bytes", static_cast<double>(metrics.size()));
  perf.AddCheck("render_metrics_fnv1a32", Fnv1a32(metrics));
  return perf.RunAndReport(&argc, argv);
}

// The `fig3` perf-gate area: times the end-to-end experiment pipeline on
// Figure 3's 2xA10 ConvNextLarge run at each of its target batch sizes,
// and records those throughputs as the area's determinism checks.
// `hivesim reproduce --figure=fig3` prints the figure itself.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/cluster.h"
#include "core/experiment.h"

namespace {

using namespace hivesim;
using models::ModelId;

double RunTwoGpu(ModelId model, int tbs) {
  core::ClusterSpec cluster;
  cluster.groups = {core::LambdaA10s(2)};
  core::ExperimentConfig config;
  config.model = model;
  config.target_batch_size = tbs;
  config.duration_sec = 3600;
  auto result = core::RunHivemindExperiment(cluster, config);
  return result.ok() ? result->train.throughput_sps : 0;
}

void BM_TbsSweep(benchmark::State& state) {
  const int tbs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.counters["sps"] = RunTwoGpu(ModelId::kConvNextLarge, tbs);
  }
}
BENCHMARK(BM_TbsSweep)->Arg(8192)->Arg(16384)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  hivesim::bench::TelemetryScope telemetry_scope(&argc, argv);
  hivesim::bench::PerfJsonScope perf(&argc, argv, "fig3");
  // The experiment pipeline end to end must reproduce these throughputs.
  perf.AddCheck("sps_conv_tbs8192", RunTwoGpu(ModelId::kConvNextLarge, 8192));
  perf.AddCheck("sps_conv_tbs16384",
                RunTwoGpu(ModelId::kConvNextLarge, 16384));
  perf.AddCheck("sps_conv_tbs32768",
                RunTwoGpu(ModelId::kConvNextLarge, 32768));
  return perf.RunAndReport(&argc, argv);
}

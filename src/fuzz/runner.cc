#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "faults/chaos.h"
#include "fuzz/fuzz.h"
#include "fuzz/internal.h"
#include "telemetry/telemetry.h"

namespace hivesim::fuzz {

namespace {

/// Everything one world execution produced that the oracles compare.
struct WorldRun {
  Status status = Status::OK();
  uint64_t fingerprint = 0;
  std::string chaos_trace;
  telemetry::TraceRecorder trace;
  std::string metrics_json;
  std::string digest;
  bool monotone = true;
  double end_now = 0;
  uint64_t events_fired = 0;
  size_t pending = 0;
  hivemind::RunStats stats;
};

/// Serializes every number a run produced through the round-tripping
/// JsonWriter formatter, so "byte-identical digest" means "bit-identical
/// doubles" — the strictest equality the oracle can ask for.
std::string ResultDigest(const core::ExperimentResult& result) {
  JsonWriter json;
  json.BeginObject();
  json.Key("duration_sec").Number(result.train.duration_sec);
  json.Key("total_samples").Number(result.train.total_samples);
  json.Key("throughput_sps").Number(result.train.throughput_sps);
  json.Key("local_throughput_sps").Number(result.train.local_throughput_sps);
  json.Key("avg_calc_sec").Number(result.train.avg_calc_sec);
  json.Key("avg_comm_sec").Number(result.train.avg_comm_sec);
  json.Key("granularity").Number(result.train.granularity);
  json.Key("epochs").Int(result.train.epochs);
  json.Key("epoch_stats").BeginArray();
  for (const hivemind::EpochStats& epoch : result.train.epoch_stats) {
    json.BeginArray();
    json.Number(epoch.calc_sec);
    json.Number(epoch.comm_sec);
    json.Number(epoch.samples);
    json.Int(epoch.peers);
    json.EndArray();
  }
  json.EndArray();
  json.Key("fleet_cost_per_hour").Number(result.fleet_cost_per_hour);
  json.Key("cost_per_million").Number(result.cost_per_million);
  json.Key("fleet_cost_per_hour_excl_data")
      .Number(result.fleet_cost_per_hour_excl_data);
  json.Key("cost_per_million_excl_data")
      .Number(result.cost_per_million_excl_data);
  json.Key("vms").Int(static_cast<int64_t>(result.usages.size()));
  json.EndObject();
  return json.ToString();
}

std::string ChaosTraceText(const faults::ChaosInjector& injector) {
  std::string text;
  for (const faults::ChaosInjector::TraceEntry& entry : injector.trace()) {
    JsonWriter at;
    at.Number(entry.at_sec);
    text += StrCat(at.ToString(), " ", entry.event, "\n");
  }
  return text;
}

core::ExperimentConfig ConfigOf(const FuzzCase& fuzz_case) {
  core::ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.target_batch_size = fuzz_case.target_batch_size;
  config.duration_sec = fuzz_case.sim_duration_sec;
  config.seed = fuzz_case.world_seed;
  return config;
}

/// One full world execution with private telemetry sinks. `second` is
/// only consulted by the injected-ordering-bug test hook.
WorldRun DoRun(const FuzzCase& fuzz_case, const FuzzOptions& options,
               bool second) {
  WorldRun out;
  telemetry::TraceRecorder trace;
  telemetry::MetricsRegistry metrics;
  telemetry::Telemetry::ScopedSinks sinks(&trace, &metrics);

  const core::ExperimentConfig config = ConfigOf(fuzz_case);
  auto world =
      core::BuildExperimentWorld(fuzz_case.cluster, config, &fuzz_case.pack);
  if (!world.ok()) {
    out.status = world.status();
    return out;
  }

  // Monotone-clock probes: 64 checkpoints across the run, each asserting
  // the clock never moved backwards since the previous one. The run starts
  // where the build left the clock (a spot world returns after its VMs
  // boot), so the probes span [start, start + duration].
  struct ProbeState {
    double last = 0;
    bool monotone = true;
  };
  auto probe = std::make_shared<ProbeState>();
  sim::Simulator* sim = &(*world)->sim;
  const double start = sim->Now();
  for (int k = 1; k <= 64; ++k) {
    sim->ScheduleAt(start + config.duration_sec * k / 64.0, [probe, sim] {
      if (sim->Now() + 1e-12 < probe->last) probe->monotone = false;
      probe->last = sim->Now();
    });
  }

  auto result = core::CompleteExperiment(**world, config);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.monotone = probe->monotone;
  out.end_now = sim->Now();
  out.events_fired = sim->events_fired();
  out.pending = sim->pending();
  out.fingerprint = result->chaos_fingerprint;
  if (second && options.inject_ordering_bug &&
      internal::PackHasFullPartition(fuzz_case.pack) &&
      internal::PackHasCrash(fuzz_case.pack)) {
    out.fingerprint ^= 1;
  }
  out.chaos_trace = ChaosTraceText(*(*world)->chaos);
  out.digest = ResultDigest(*result);
  out.stats = result->train;
  // Moved out before the world tears down, so the oracle compares what
  // the run recorded; anything teardown records stays in `trace`.
  out.trace = std::move(trace);
  out.metrics_json = metrics.ToJson();
  return out;
}

Verdict Fail(std::string oracle, std::string detail) {
  Verdict verdict;
  verdict.ok = false;
  verdict.oracle = std::move(oracle);
  verdict.detail = std::move(detail);
  return verdict;
}

}  // namespace

namespace internal {

bool PackHasFullPartition(const scenario::ScenarioPack& pack) {
  for (const scenario::WanSpec& wan : pack.wan) {
    if (wan.bandwidth_factor == 0.0) return true;
  }
  return false;
}

bool PackHasCrash(const scenario::ScenarioPack& pack) {
  return !pack.crashes.empty() || !pack.crash_storms.empty();
}

}  // namespace internal

Verdict RunOracles(const FuzzCase& fuzz_case, const FuzzOptions& options) {
  const WorldRun a = DoRun(fuzz_case, options, /*second=*/false);
  const WorldRun b = DoRun(fuzz_case, options, /*second=*/true);

  if (!a.status.ok() || !b.status.ok()) {
    if (a.status.ToString() == b.status.ToString()) {
      // The world itself is invalid (e.g. an OOM fleet) and said so
      // identically twice: a vacuous case, not an oracle failure.
      Verdict verdict;
      verdict.ran = false;
      verdict.detail = a.status.ToString();
      return verdict;
    }
    return Fail("status-divergence",
                StrCat("run1: ", a.status.ToString(),
                       " run2: ", b.status.ToString()));
  }

  // Byte-identity oracles first, most specific signal first: the chaos
  // fingerprint pins injector-event ordering, the trace pins everything
  // the simulation logged, the digest pins every result number.
  if (a.fingerprint != b.fingerprint) {
    return Fail(
        "chaos-fingerprint",
        StrFormat("%016llx != %016llx",
                  static_cast<unsigned long long>(a.fingerprint),
                  static_cast<unsigned long long>(b.fingerprint)));
  }
  if (a.chaos_trace != b.chaos_trace) {
    return Fail("chaos-trace", "applied-event logs differ between runs");
  }
  if (!a.trace.SameRecording(b.trace)) {
    return Fail("telemetry-trace", "trace recordings differ between runs");
  }
  if (a.metrics_json != b.metrics_json) {
    return Fail("metrics", "metrics JSON differs between runs");
  }
  if (a.digest != b.digest) {
    return Fail("result-digest",
                StrCat("run1: ", a.digest, " run2: ", b.digest));
  }
  if (a.events_fired != b.events_fired || a.pending != b.pending) {
    return Fail("event-pool",
                StrCat("fired/pending ", a.events_fired, "/", a.pending,
                       " != ", b.events_fired, "/", b.pending));
  }

  // Single-run invariants (checked on run 1; runs are identical by now).
  if (a.stats.epochs !=
      static_cast<int>(a.stats.epoch_stats.size())) {
    return Fail("reconcile-epochs",
                StrCat("epochs=", a.stats.epochs, " but ",
                       a.stats.epoch_stats.size(), " epoch records"));
  }
  double samples = 0;
  for (const hivemind::EpochStats& epoch : a.stats.epoch_stats) {
    samples += epoch.samples;
  }
  const double tolerance =
      1e-6 * std::max(1.0, std::fabs(a.stats.total_samples));
  if (std::fabs(samples - a.stats.total_samples) > tolerance) {
    return Fail("reconcile-samples",
                StrCat("epoch samples sum to ", samples, " but run counted ",
                       a.stats.total_samples));
  }
  if (!a.monotone || !b.monotone) {
    return Fail("monotone-clock", "simulation clock moved backwards");
  }
  if (a.end_now + 1e-9 < fuzz_case.sim_duration_sec) {
    return Fail("deadlock",
                StrCat("run ended at t=", a.end_now, " before duration ",
                       fuzz_case.sim_duration_sec));
  }
  return Verdict{};
}

Result<Verdict> ReplayScenarioFile(const std::string& path,
                                   const FuzzOptions& options) {
  scenario::ScenarioPack pack;
  HIVESIM_ASSIGN_OR_RETURN(pack,
                           scenario::LoadScenarioFile(path));
  if (!pack.repro.present) {
    return Status::InvalidArgument(
        StrCat(path, ": pack has no `repro` section (replay needs the "
                     "fleet/seed context `hivesim fuzz` writes)"));
  }
  const std::string conv =
      std::string(models::ModelName(models::ModelId::kConvNextLarge));
  if (pack.repro.model != conv) {
    return Status::InvalidArgument(
        StrCat(path, ": replay supports only the ", conv, " model, got '",
               pack.repro.model, "'"));
  }
  FuzzCase fuzz_case;
  HIVESIM_ASSIGN_OR_RETURN(fuzz_case.cluster,
                           core::ParseFleetSpec(pack.repro.fleet));
  fuzz_case.fleet_spec = pack.repro.fleet;
  fuzz_case.world_seed = pack.repro.seed;
  fuzz_case.sim_duration_sec = pack.repro.duration_sec;
  fuzz_case.target_batch_size = pack.repro.target_batch_size;
  fuzz_case.pack = pack;
  if (fuzz_case.sim_duration_sec <= 0) {
    return Status::InvalidArgument(
        StrCat(path, ": repro duration must be positive"));
  }
  if (fuzz_case.target_batch_size <= 0) {
    return Status::InvalidArgument(
        StrCat(path, ": repro target batch size must be positive"));
  }
  return RunOracles(fuzz_case, options);
}

}  // namespace hivesim::fuzz

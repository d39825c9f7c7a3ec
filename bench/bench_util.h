#ifndef HIVESIM_BENCH_BENCH_UTIL_H_
#define HIVESIM_BENCH_BENCH_UTIL_H_

#include <map>
#include <string>

namespace hivesim::bench {

/// Prints a section heading so bench output reads like the paper.
void PrintHeading(const std::string& text);

/// Opt-in telemetry for bench binaries: construct at the top of main()
/// with &argc/argv *before* benchmark::Initialize. Strips
/// `--trace-out=PATH` / `--metrics-out=PATH` from argv (google-benchmark
/// rejects flags it does not know), enables telemetry when either was
/// present, and writes the requested dumps on destruction. With neither
/// flag it is a no-op and the run stays on the disabled fast path.
class TelemetryScope {
 public:
  TelemetryScope(int* argc, char** argv);
  ~TelemetryScope();

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string trace_out_;
  std::string metrics_out_;
};

/// Machine-readable perf reporting for the trajectory gate: construct
/// with &argc/argv *before* benchmark::Initialize (it strips
/// `--bench-json=PATH` and `--bench-area=NAME`, which google-benchmark
/// would reject; the latter renames the artifact's area, so one binary
/// can feed two gated areas), register
/// deterministic self-check values with `AddCheck`, then let
/// `RunAndReport` drive Initialize + RunSpecifiedBenchmarks.
///
/// When `--bench-json` was given, the run is captured through a
/// collecting reporter (console output is preserved) and written as
///
///   {"area":"<area>",
///    "benches":{"BM_Name/arg":{"ns_per_iter":<min across repetitions>,
///                              "counters":{<that repetition's user
///                                          counters, if any>}}},
///    "checks":{"<key>":<value>},
///    "max_rss_bytes":<process peak RSS after the run, getrusage>,
///    "schema":"hivesim-bench/1"}
///
/// `hivesim perfgate` compares these artifacts against the committed
/// baselines in bench/baselines/. Timings are compared with a relative
/// threshold; checks must match exactly — they are the bench's
/// determinism self-test values, so a drift there is a correctness
/// regression, not noise. The peak RSS is the area's memory ceiling and
/// is gated with its own (generous) relative threshold. Without the flag
/// everything behaves as before.
class PerfJsonScope {
 public:
  /// `area` names the artifact ("kernel_sim" -> BENCH_kernel_sim.json).
  PerfJsonScope(int* argc, char** argv, std::string area);

  /// Records one deterministic value verified exactly by the perf gate.
  void AddCheck(const std::string& key, double value);

  bool json_requested() const { return !json_out_.empty(); }

  /// benchmark::Initialize + RunSpecifiedBenchmarks (+ JSON artifact
  /// when requested). Returns the process exit code.
  int RunAndReport(int* argc, char** argv);

 private:
  std::string area_;
  std::string json_out_;
  std::map<std::string, double> checks_;
};

}  // namespace hivesim::bench

#endif  // HIVESIM_BENCH_BENCH_UTIL_H_

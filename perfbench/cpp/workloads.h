#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  Workload workload = kPaperGrid;
  uint64_t seed = 1;
  /// Host seconds to measure for. The traced run spends half of it on
  /// untraced repetitions (its overhead baseline) and half traced.
  double seconds = 10;
  bool trace = false;
  /// Where the reference tables live (perfbench/data).
  std::string data_dir;
};

/// What one invocation produced.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< Failed correctness checks.
  std::map<std::string, double> end_to_end;  ///< Untraced run.
  std::map<std::string, double> per_layer;   ///< Traced run.
  std::vector<std::string> notes;            ///< Human-readable lines.
  std::vector<Span> spans;                   ///< Traced run only.
};

/// Runs `options.workload` for `options.seconds` and checks its outputs.
Report RunWorkload(const RunOptions& options);

/// FNV-1a digest of the inputs `workload` generates from `seed`: the same
/// seed gives the same inputs, another seed other inputs.
uint64_t InputsDigest(Workload workload, uint64_t seed);

/// The reference rows the default-seed checks compare against, for `seed`:
/// perfbench/data/grid_headlines.tsv and fuzz_digests.tsv.
std::string EmitGridHeadlines(uint64_t seed);
std::string EmitFuzzDigest(uint64_t seed);
/// The mean bytes per flow of each suitability-study model in paper_grid's
/// worlds at TBS 32768: the flow sizes fleet_churn draws from.
std::string EmitTransferSizes(uint64_t seed);

/// Cases per fuzz_campaign repetition: the campaign the digest is
/// committed for. Small enough that a run repeats every case many times.
constexpr int kFuzzCases = 400;

/// The fuzz_campaign digest of the first `cases` cases of `seed` (equal to
/// fuzz::RunCampaign's when no case fails).
uint64_t CampaignDigest(uint64_t seed, int cases);

// --- Internals shared by the workload implementations ---------------------

/// FNV-1a, the fold fuzz::RunCampaign uses for its digest.
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
inline void FnvFold(uint64_t* digest, std::string_view bytes) {
  for (const char c : bytes) {
    *digest ^= static_cast<unsigned char>(c);
    *digest *= 1099511628211ULL;
  }
}

uint64_t GridInputsDigest(uint64_t seed);
uint64_t ChurnInputsDigest(uint64_t seed);
uint64_t FuzzInputsDigest(uint64_t seed);

/// What one repetition of a workload measured: its set-up, then its timed
/// phase as a sequence of steps.
struct Rep {
  double setup_s = 0;
  double timed_s = 0;  ///< Host seconds of all steps.
  double sim_s = 0;    ///< Simulated seconds the steps advanced.
  std::vector<double> step_ms;
  std::vector<double> step_rss_mb;  ///< Peak resident set during each step.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;

  /// Runs one step: times `fn` (as span `name` when tracing) and records
  /// its host time and the peak resident set the process reached in it.
  template <typename Fn>
  void Step(SpanRecorder* spans, const char* name, Fn&& fn) {
    const hivesim::Status reset = ResetPeakRss();
    const double host_s = Timed(spans, name, std::forward<Fn>(fn));
    timed_s += host_s;
    step_ms.push_back(host_s * 1e3);
    const hivesim::Result<double> rss = PeakRssMb();
    step_rss_mb.push_back(rss.ok() ? *rss : 0.0);
    if (step_ms.size() == 1 && !(reset.ok() && rss.ok())) {
      problems.push_back((reset.ok() ? rss.status() : reset).ToString());
    }
  }
};

/// One workload: repeatable passes over inputs generated from the seed.
class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  /// Generates the inputs, builds the world(s), runs the timed steps and
  /// checks the outputs. Records spans under the current open span when
  /// `spans` is non-null.
  virtual Rep RunRep(SpanRecorder* spans) = 0;
  /// Derives the per-layer metrics from the traced repetitions (`rep_ids`
  /// index the "rep" spans). `untraced` are the untraced repetitions, the
  /// baseline of on/off ratios. May run a counting pass.
  virtual void LayerMetrics(const std::vector<Span>& spans,
                            const std::vector<int>& rep_ids,
                            const std::vector<Rep>& untraced,
                            Report* report) = 0;
  /// A line on what the outputs were (printed after the repetitions).
  virtual std::string Summary() const = 0;
};

std::unique_ptr<WorkloadRunner> MakePaperGrid(const RunOptions& options,
                                              Report* report);
std::unique_ptr<WorkloadRunner> MakeFleetChurn(const RunOptions& options,
                                               Report* report);
std::unique_ptr<WorkloadRunner> MakeFuzzCampaign(const RunOptions& options,
                                                 Report* report);

/// Per-repetition totals of the spans named `name` below each rep span:
/// the median over repetitions of their summed duration (or self time).
double MedianPerRep(const std::vector<Span>& spans,
                    const std::vector<int>& rep_ids, const char* name,
                    bool self_time);
/// Number of spans named `name` below each rep span (the first rep's; the
/// work per repetition is fixed).
double CallsPerRep(const std::vector<Span>& spans,
                   const std::vector<int>& rep_ids, const char* name);
/// Durations in microseconds of every span named `name`.
std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

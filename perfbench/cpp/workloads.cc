#include "workloads.h"

#include <algorithm>
#include <cstring>

#include "common/strings.h"

namespace perfbench {

using hivesim::HostClock;
using hivesim::StrFormat;

namespace {

/// Untraced repetitions are never fewer than this, so set-up has a median
/// of several samples even when one repetition outlasts `--seconds`.
constexpr size_t kMinUntracedReps = 3;

/// Each step's fastest time over the repetitions. The inputs are a function
/// of the seed, so step i of every repetition is the same work. On a shared
/// machine whose speed drifts with its neighbours' load (by 2x within a
/// minute on the 4-vCPU VMs this was tuned on), the fastest of several tries
/// made at different moments is far steadier than any single try or a
/// median over tries that fall in one slow phase.
std::vector<double> BestSteps(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().step_ms;
  for (const Rep& rep : reps) {
    for (size_t i = 0; i < best.size() && i < rep.step_ms.size(); ++i) {
      best[i] = std::min(best[i], rep.step_ms[i]);
    }
  }
  return best;
}

/// Simulated seconds per host second over the steps' best times.
double SimRate(const std::vector<Rep>& reps) {
  double host_ms = 0;
  for (const double ms : BestSteps(reps)) host_ms += ms;
  return host_ms > 0 ? reps.front().sim_s / (host_ms / 1e3) : 0.0;
}

/// Empty when every repetition ran the same steps and simulated the same
/// time, which BestSteps relies on.
std::string CheckAligned(const std::vector<Rep>& reps) {
  for (const Rep& rep : reps) {
    if (rep.step_ms.size() != reps.front().step_ms.size() ||
        rep.sim_s != reps.front().sim_s) {
      return StrFormat("repetitions differ: %zu steps / %.17g sim s vs %zu / "
                       "%.17g",
                       rep.step_ms.size(), rep.sim_s,
                       reps.front().step_ms.size(), reps.front().sim_s);
    }
  }
  return "";
}

/// Calls `run` at least `min_reps` times, then again while the next call,
/// taking as long as the longest so far, would still end within `budget`
/// host seconds of the start.
template <typename Fn>
void RepeatFor(double budget, size_t min_reps, Fn&& run) {
  const double start = HostClock::Seconds();
  double longest = 0;
  for (size_t n = 0;
       n < min_reps || HostClock::Seconds() - start + longest <= budget;
       ++n) {
    const double rep_start = HostClock::Seconds();
    run();
    longest = std::max(longest, HostClock::Seconds() - rep_start);
  }
}

void Absorb(const std::vector<Rep>& reps, Report* report) {
  for (const Rep& rep : reps) {
    report->attempted += rep.attempted;
    report->failed += rep.failed;
    report->problems.insert(report->problems.end(), rep.problems.begin(),
                            rep.problems.end());
  }
}

bool IsBelow(const std::vector<Span>& spans, size_t i, int root) {
  // Parents precede their children, so the chain only descends in index.
  for (int p = spans[i].parent; p >= root; p = spans[static_cast<size_t>(p)].parent) {
    if (p == root) return true;
  }
  return false;
}

/// Spans named `name` in the subtree of `root` (spans are stored in
/// pre-order, so a subtree is a contiguous run after its root).
template <typename Fn>
void ForEachBelow(const std::vector<Span>& spans, int root, const char* name,
                  Fn&& fn) {
  for (size_t i = static_cast<size_t>(root) + 1;
       i < spans.size() && IsBelow(spans, i, root); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) fn(i);
  }
}

}  // namespace

double MedianPerRep(const std::vector<Span>& spans,
                    const std::vector<int>& rep_ids, const char* name,
                    bool self_time) {
  const std::vector<double> self =
      self_time ? SelfTimes(spans) : std::vector<double>();
  std::vector<double> totals;
  for (const int rep : rep_ids) {
    double total = 0;
    ForEachBelow(spans, rep, name, [&](size_t i) {
      total += self_time ? self[i] : spans[i].end - spans[i].start;
    });
    totals.push_back(total);
  }
  return Median(totals);
}

double CallsPerRep(const std::vector<Span>& spans,
                   const std::vector<int>& rep_ids, const char* name) {
  if (rep_ids.empty()) return 0;
  double calls = 0;
  ForEachBelow(spans, rep_ids.front(), name, [&](size_t) { ++calls; });
  return calls;
}

std::vector<double> DurationsUs(const std::vector<Span>& spans,
                                const char* name) {
  std::vector<double> durations;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      durations.push_back((span.end - span.start) * 1e6);
    }
  }
  return durations;
}

uint64_t InputsDigest(Workload workload, uint64_t seed) {
  switch (workload) {
    case kPaperGrid: return GridInputsDigest(seed);
    case kFleetChurn: return ChurnInputsDigest(seed);
    case kFuzzCampaign: return FuzzInputsDigest(seed);
  }
  return 0;
}

Report RunWorkload(const RunOptions& options) {
  Report report;
  std::unique_ptr<WorkloadRunner> runner;
  switch (options.workload) {
    case kPaperGrid: runner = MakePaperGrid(options, &report); break;
    case kFleetChurn: runner = MakeFleetChurn(options, &report); break;
    case kFuzzCampaign: runner = MakeFuzzCampaign(options, &report); break;
  }
  if (runner == nullptr) return report;  // Inputs unusable; see problems.

  // Untraced repetitions: the end-to-end metrics, or in the traced run the
  // baseline its overhead is measured against.
  const double untraced_budget =
      options.trace ? options.seconds / 2 : options.seconds;
  const size_t min_reps = options.trace ? 1 : kMinUntracedReps;
  std::vector<Rep> untraced;
  RepeatFor(untraced_budget, min_reps,
            [&] { untraced.push_back(runner->RunRep(nullptr)); });
  Absorb(untraced, &report);
  const std::string aligned = CheckAligned(untraced);
  if (!aligned.empty()) report.problems.push_back(aligned);
  const std::vector<double> steps = BestSteps(untraced);
  std::vector<double> setups;
  for (const Rep& rep : untraced) setups.push_back(rep.setup_s);

  if (!options.trace) {
    report.end_to_end["setup_s"] = Median(setups);
    report.end_to_end["sim_s_per_host_s"] = SimRate(untraced);
    report.end_to_end["step_ms_p50"] = Percentile(steps, 0.5);
    report.end_to_end["step_ms_p90"] = Percentile(steps, 0.9);
    std::vector<double> step_rss_mb;
    for (const Rep& rep : untraced) {
      step_rss_mb.insert(step_rss_mb.end(), rep.step_rss_mb.begin(),
                         rep.step_rss_mb.end());
    }
    report.end_to_end["peak_rss_mb"] = Percentile(step_rss_mb, 0.9);
    report.notes.push_back(StrFormat(
        "%s seed=%llu inputs=%016llx: %zu repetitions; setup_s=%.4f "
        "(median of %zu); sim_s_per_host_s=%.2f; step_ms p50=%.3f p90=%.3f "
        "over %zu steps, each its fastest of the %zu repetitions; "
        "peak_rss_mb=%.1f (p90 over %zu steps' peaks)",
        WorkloadName(options.workload),
        static_cast<unsigned long long>(options.seed),
        static_cast<unsigned long long>(
            InputsDigest(options.workload, options.seed)),
        untraced.size(), report.end_to_end["setup_s"], setups.size(),
        report.end_to_end["sim_s_per_host_s"],
        report.end_to_end["step_ms_p50"], report.end_to_end["step_ms_p90"],
        steps.size(), untraced.size(), report.end_to_end["peak_rss_mb"],
        step_rss_mb.size()));
    std::string rates = "per-repetition sim_s_per_host_s:";
    for (const Rep& rep : untraced) {
      rates += StrFormat(" %.4g", rep.sim_s / rep.timed_s);
    }
    report.notes.push_back(rates);
    report.notes.push_back(runner->Summary());
    return report;
  }

  // Traced repetitions: one span tree, workload -> rep -> world or slice
  // -> layer call.
  SpanRecorder recorder;
  std::vector<int> rep_ids;
  std::vector<Rep> traced;
  const int root = recorder.Begin("workload", HostClock::Seconds());
  RepeatFor(options.seconds / 2, 1, [&] {
    rep_ids.push_back(recorder.Begin("rep", HostClock::Seconds()));
    traced.push_back(runner->RunRep(&recorder));
    recorder.End(rep_ids.back(), HostClock::Seconds());
  });
  recorder.End(root, HostClock::Seconds());
  Absorb(traced, &report);
  const std::string traced_aligned = CheckAligned(traced);
  if (!traced_aligned.empty()) report.problems.push_back(traced_aligned);

  const std::string tree = CheckSpanTree(recorder.spans());
  if (!tree.empty()) report.problems.push_back("span tree: " + tree);
  runner->LayerMetrics(recorder.spans(), rep_ids, untraced, &report);
  const double traced_rate = SimRate(traced);
  report.per_layer["step.samples"] = static_cast<double>(steps.size());
  report.per_layer["bench.trace_overhead_ratio"] =
      traced_rate > 0 ? SimRate(untraced) / traced_rate : 0.0;
  report.notes.push_back(StrFormat(
      "%s seed=%llu traced: %zu untraced + %zu traced repetitions, %zu "
      "spans; sim_s_per_host_s untraced %.2f, traced %.2f",
      WorkloadName(options.workload),
      static_cast<unsigned long long>(options.seed), untraced.size(),
      traced.size(), recorder.spans().size(), SimRate(untraced),
      traced_rate));
  report.notes.push_back(runner->Summary());
  report.spans = recorder.spans();
  return report;
}

}  // namespace perfbench

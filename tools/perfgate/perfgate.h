#ifndef HIVESIM_TOOLS_PERFGATE_PERFGATE_H_
#define HIVESIM_TOOLS_PERFGATE_PERFGATE_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace hivesim::perfgate {

/// The perf-trajectory gate: compares freshly generated BENCH_<area>.json
/// artifacts (written by the bench binaries' `--bench-json=` mode)
/// against the committed baselines in bench/baselines/, and fails CI when
/// a benchmark slowed down beyond its allowed relative threshold or a
/// deterministic self-check value drifted.
///
/// File layout, identical in both directories:
///   BENCH_<area>.json = {"area":"<area>",
///                        "benches":{"BM_X/4096":{"ns_per_iter":N,
///                                   "counters":{"items/s":R}}},
///                        "checks":{"storm_fired":13333},
///                        "max_rss_bytes":123456789,
///                        "schema":"hivesim-bench/1"}
/// A baseline may additionally carry {"thresholds":{"BM_X/4096":0.60}}
/// to widen the gate for a known-noisy bench; `Run` with `update=true`
/// preserves that object when rewriting the baseline. `max_rss_bytes` is
/// the area's memory ceiling (process peak RSS after the bench run); it
/// is gated like a timing but against `rss_threshold` — a deliberately
/// generous limit, since an allocator or environment change can move RSS
/// without any algorithmic regression. A baseline may still pin it
/// tighter (or looser) with a "max_rss_bytes" entry in "thresholds".
///
/// A baseline may also carry hand-curated scaling floors, preserved by
/// `update` like the thresholds:
///   {"floors":[{"counter":"items/s","numerator":"BM_X/100000",
///               "denominator":"BM_X/1000","min":0.05}]}
/// The current run's counter ratio numerator/denominator must be at least
/// `min`. A floor gates how a cost scales, which no per-bench timing
/// threshold can: both benches may each sit inside their threshold while
/// the large one falls off a cliff relative to the small one.

struct GateOptions {
  std::string baseline_dir;  ///< Committed baselines (bench/baselines).
  std::string current_dir;   ///< Freshly generated artifacts.
  /// Areas to gate; each maps to one BENCH_<area>.json in both dirs.
  std::vector<std::string> areas = {"chaos",      "fig3",
                                    "fleet",      "fleet_100k",
                                    "kernel_net", "kernel_sim",
                                    "kernel_telemetry"};
  /// Allowed relative slowdown (0.25 = current may be up to 25% slower
  /// than baseline) unless the baseline overrides it per bench.
  double default_threshold = 0.25;
  /// Allowed relative growth of an area's peak RSS.
  double rss_threshold = 0.5;
  /// Rewrite the baselines from the current artifacts instead of
  /// comparing (the `--update-golden` analogue for perf numbers).
  bool update = false;
  /// With this set, an area whose baseline file does not exist yet is
  /// reported as all-new rows (warn) instead of a hard error — the escape
  /// hatch for landing a brand-new bench area in the same change that
  /// records its first baseline. A baseline file that exists but fails to
  /// parse is still a hard error, as is a missing *current* artifact
  /// (that is lost coverage, not a new area).
  bool allow_new_area = false;
};

enum class RowStatus {
  kOk,             ///< Within threshold.
  kImproved,       ///< Faster than baseline beyond the threshold.
  kRegressed,      ///< Slower than baseline beyond the threshold: FAIL.
  kNew,            ///< In current but not baseline: warn only.
  kMissing,        ///< In baseline but not current: FAIL (lost coverage).
  kCheckOk,        ///< Deterministic check matches exactly.
  kCheckMismatch,  ///< Deterministic check drifted: FAIL.
  kFloorOk,        ///< Counter ratio at or above its floor.
  kBelowFloor,     ///< Counter ratio below its floor (or unmeasured): FAIL.
};

/// One compared benchmark timing, check value or scaling floor.
struct GateRow {
  std::string area;
  std::string name;  ///< Bench name ("BM_X/4096"), check key, or floor.
  double baseline = 0;   ///< For a floor row: the floor.
  double current = 0;    ///< For a floor row: the measured ratio.
  double threshold = 0;  ///< Relative limit applied (0 for checks).
  RowStatus status = RowStatus::kOk;
};

struct GateReport {
  std::vector<GateRow> rows;  ///< Area-then-name sorted.
  /// Any kRegressed/kMissing/kCheckMismatch/kBelowFloor.
  bool failed = false;
  int regressions = 0;
  int improvements = 0;
  int check_mismatches = 0;
  int below_floor = 0;
  int missing = 0;
  int new_benches = 0;
};

/// Compares (or, with `options.update`, rewrites) the baselines. Returns
/// an error Status when an artifact file is missing or malformed — that
/// is an infrastructure failure, distinct from a perf regression, which
/// comes back as `GateReport::failed`.
Result<GateReport> Run(const GateOptions& options);

/// Renders the before/after table plus a one-line verdict.
std::string FormatReport(const GateReport& report);

}  // namespace hivesim::perfgate

#endif  // HIVESIM_TOOLS_PERFGATE_PERFGATE_H_

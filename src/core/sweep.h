#ifndef HIVESIM_CORE_SWEEP_H_
#define HIVESIM_CORE_SWEEP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

#include "common/result.h"
#include "common/units.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "scenario/scenario.h"
#include "telemetry/telemetry.h"

namespace hivesim::core {

/// One entry on a sweep's chaos axis: a label (cell name suffix, and
/// what reports print) plus the scenario pack its cells arm, compiled
/// per cell against that cell's fleet. "none" is the entry without a
/// pack; builtin names resolve through `scenario::BuiltinScenario`.
struct ChaosAxisEntry {
  std::string label;
  std::optional<scenario::ScenarioPack> pack;
};

/// A figure grid as data: the cross product of cluster layouts, models,
/// target batch sizes, seeds, and chaos entries, sharing one duration and
/// trainer configuration. Every paper figure is one of these (Fig. 3 =
/// suitability models x {8K,16K,32K} on 2xA10; Fig. 7-10 = the A/B/C/D
/// series; ...). Expansion order is the documented, stable cell order:
/// clusters outermost, then models, batch sizes, seeds, chaos innermost.
struct SweepSpec {
  std::string title = "sweep";
  std::vector<NamedExperiment> clusters;               ///< Required.
  std::vector<models::ModelId> models = {models::ModelId::kConvNextLarge};
  std::vector<int> target_batch_sizes = {32768};
  std::vector<uint64_t> seeds = {1};
  std::vector<ChaosAxisEntry> chaos = {{"none", std::nullopt}};
  double duration_sec = 2 * kHour;

  // Shared trainer knobs (not axes; add an axis when a figure needs one).
  bool delayed_parameter_updates = true;
  models::Compression compression = models::Compression::kFp16;
  collective::Strategy strategy = collective::Strategy::kAuto;
  int streams_per_transfer = 1;

  /// Non-empty axes, positive TBS/duration, no duplicate cell names.
  /// Chaos labels are non-empty and unique, "none" labels exactly the
  /// entry without a pack, and a pack labelled with a builtin name must
  /// be that builtin (same `scenario::ScenarioToJson` bytes).
  Status Validate() const;
  size_t NumCells() const;
};

/// One expanded grid point: everything `BuildExperimentWorld` needs,
/// plus identity. `index` is the cell's position in expansion order and
/// is the *only* ordering the engine ever uses — completion order is
/// scheduling noise.
struct SweepCell {
  size_t index = 0;
  std::string name;  ///< "A-8/CONV/tbs32768/seed1[/partition]".
  std::string slug;  ///< Slugified name (per-run output file stems).
  NamedExperiment cluster;
  ExperimentConfig config;
  ChaosAxisEntry chaos{"none", std::nullopt};  ///< The cell's chaos entry.
};

/// Expands the spec's cross product in documented order.
std::vector<SweepCell> ExpandSweep(const SweepSpec& spec);

/// Everything one finished cell produced. Captured telemetry renderings
/// are byte-stable for a fixed cell (sim-time stamped, private sinks), so
/// the determinism oracle can compare them across thread counts.
struct SweepCellOutcome {
  bool ok = false;
  std::string error;                 ///< Status string when !ok.
  ExperimentResult result;           ///< Valid when ok.
  telemetry::MetricsRegistry metrics;  ///< Per-run registry (may be empty).
  std::string trace_json;            ///< Chrome trace (telemetry runs only).
  std::string metrics_json;          ///< Registry JSON (telemetry runs only).
};

/// Collects cell outcomes in any completion order and renders them in
/// cell order, so its every output is a pure function of the outcomes —
/// independent of thread count, scheduling, or insertion permutation
/// (property-tested). Add() is thread-safe; the renderings require
/// complete().
class SweepAggregator {
 public:
  SweepAggregator(SweepSpec spec, std::vector<SweepCell> cells);

  /// Records cell `index`'s outcome (exactly once per cell).
  void Add(size_t index, SweepCellOutcome outcome);

  size_t added() const;
  bool complete() const;
  int failures() const;

  const SweepSpec& spec() const { return spec_; }
  const std::vector<SweepCell>& cells() const { return cells_; }
  /// Outcome of cell `index`; meaningful once that cell was added.
  /// Deliberately unlocked (it returns a reference, so a lock here could
  /// not protect the caller anyway): callers read only after the worker
  /// pool is joined, which already happens-before via Add()'s unlock.
  const SweepCellOutcome& outcome(size_t index) const
      HIVESIM_NO_THREAD_SAFETY_ANALYSIS {
    return outcomes_[index];
  }

  /// The bench/CLI report schemas over the successful cells, in cell
  /// order (same JSON/CSV layout `hivesim run --json/--csv` emits).
  std::string ReportJson() const;
  std::string ReportCsv() const;
  /// Sweep manifest: the spec's axes plus one entry per cell (status,
  /// axis values, chaos fingerprint, headline numbers).
  std::string ManifestJson() const;
  /// All per-run metric registries folded with MetricsRegistry::Merge.
  std::string MergedMetricsJson() const;

 private:
  int FailuresLocked() const HIVESIM_REQUIRES(mu_);

  SweepSpec spec_;           ///< Immutable after construction.
  std::vector<SweepCell> cells_;  ///< Immutable after construction.
  std::vector<SweepCellOutcome> outcomes_ HIVESIM_GUARDED_BY(mu_);
  std::vector<bool> present_ HIVESIM_GUARDED_BY(mu_);
  size_t added_ HIVESIM_GUARDED_BY(mu_) = 0;
  /// Root of the lock-order DAG: Add() and the renderers hold it over
  /// pure in-memory work only; no other hivesim lock nests inside.
  mutable Mutex mu_ HIVESIM_LOCK_ORDER_ROOT;
};

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_SWEEP_H_

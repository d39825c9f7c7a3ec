#ifndef HIVESIM_FUZZ_FUZZ_H_
#define HIVESIM_FUZZ_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/cluster.h"
#include "scenario/scenario.h"

namespace hivesim::fuzz {

/// The chaos fuzzer: seeded random scenario packs against randomized
/// fleets, every world run twice, the full oracle set checked, and
/// failures deterministically shrunk to minimal reproducer packs.
/// Everything here is a pure function of (options.seed, iteration) —
/// the same campaign always generates the same cases, reaches the same
/// verdicts, and shrinks to byte-identical reproducer files
/// (docs/SCENARIOS.md describes the oracles and shrinking semantics).

struct FuzzOptions {
  uint64_t seed = 1;
  /// Cases per campaign. This is the deterministic contract; the wall
  /// budget below only stops *early* (and marks the result truncated).
  int runs = 20;
  /// Host-wall-clock safety stop in seconds; 0 = none. Campaigns that
  /// hit it are reproducible only up to the case reached.
  double budget_sec = 0;
  /// Upper bound on events per generated pack.
  int max_events = 6;
  /// Simulated duration of each fuzz world.
  double sim_duration_sec = 1800;
  int target_batch_size = 4096;
  /// Where minimized reproducer packs are written; empty = don't write.
  std::string repro_dir;
  /// Test-only hook: perturbs the second run's chaos fingerprint for
  /// any case whose pack contains both a full partition and a crash,
  /// simulating an ordering-determinism bug so the find-and-shrink
  /// pipeline can be exercised end to end.
  bool inject_ordering_bug = false;
  /// Shrink failing cases (off = report the raw generated pack).
  bool shrink = true;
};

/// One generated world: a fleet plus the pack to compile against it.
struct FuzzCase {
  core::ClusterSpec cluster;
  std::string fleet_spec;  ///< "gc-us:2,aws:1" (reproducer `repro.fleet`).
  uint64_t world_seed = 1;
  double sim_duration_sec = 1800;
  int target_batch_size = 4096;
  scenario::ScenarioPack pack;
};

/// Oracle verdict for one case.
struct Verdict {
  bool ok = true;
  /// False when the world itself errored identically in both runs (the
  /// case is rejected, not failed — e.g. an OOM fleet).
  bool ran = true;
  std::string oracle;  ///< Failing oracle id ("chaos-fingerprint", ...).
  std::string detail;
};

/// Deterministically generates case `iteration` of the campaign.
/// Generated packs are *canonical*: per-pair WAN/contention windows
/// sorted and non-overlapping, at most one diurnal curve per pair (and
/// then no interval windows on it), crashes sorted by time, zones drawn
/// from the fleet's continents, peer indices in range.
FuzzCase GenerateCase(const FuzzOptions& options, int iteration);

/// Checks the canonical-form invariants above plus compile + schedule
/// validation; the property tests run this over many seeds.
Status CheckCanonical(const FuzzCase& fuzz_case);

/// Runs the case's world twice and checks the oracle set:
///   - same-seed byte identity: chaos trace fingerprint + applied-event
///     log, telemetry trace JSON, metrics JSON, and the result digest
///     (every RunStats/cost number via round-tripping formatting),
///   - trainer counter reconciliation: epochs == epoch_stats size and
///     sum(epoch samples) == total_samples,
///   - monotone sim clock, observed by a probe event rescheduling
///     itself across the whole run,
///   - no watchdog deadlock: the simulation reaches the configured
///     duration and the run returns,
///   - event-pool leak check: after draining post-run events the
///     simulator's pending count returns to zero, and both runs fire
///     the exact same number of events.
Verdict RunOracles(const FuzzCase& fuzz_case, const FuzzOptions& options);

/// The failure predicate shrinking minimizes against: true = the pack
/// still fails (same oracle family) for this case's fleet/seed.
using OracleFn = std::function<bool(const scenario::ScenarioPack&)>;

/// Deterministic shrink: greedy event removal to a fixpoint in canonical
/// section order, then parameter bisection over fixed absolute grids
/// (window durations on a 1/64-of-run grid, bandwidth factors on a 1/16
/// grid, ...), repeated until nothing changes. The grids are anchored
/// to constants — not to current values — so shrinking is idempotent:
/// Shrink(Shrink(x)) == Shrink(x), and the same seed always produces
/// the same minimal pack.
scenario::ScenarioPack ShrinkPack(const scenario::ScenarioPack& pack,
                                  const OracleFn& still_fails);

/// Shrinks `fuzz_case`'s pack against the real oracle set and stamps
/// the reproducer metadata (`WithRepro`).
scenario::ScenarioPack ShrinkCase(const FuzzCase& fuzz_case,
                                  const FuzzOptions& options,
                                  const Verdict& verdict);

/// `pack` with the `repro` section that `ReplayScenarioFile` rebuilds
/// `fuzz_case`'s world from: fleet, seed, duration, tbs, model and the
/// failed oracle's id. Both the shrunk and the `--no-shrink` reproducer
/// are stamped here.
scenario::ScenarioPack WithRepro(scenario::ScenarioPack pack,
                                 const FuzzCase& fuzz_case,
                                 const Verdict& verdict);

struct CampaignResult {
  int cases = 0;     ///< Generated.
  int ran = 0;       ///< Worlds that actually trained.
  int rejected = 0;  ///< Worlds that errored identically (vacuous cases).
  int failures = 0;  ///< Oracle failures.
  bool truncated = false;  ///< Wall budget hit before `runs` cases.
  std::vector<std::string> failure_oracles;  ///< One id per failure.
  std::vector<std::string> repro_files;      ///< Written reproducers.
  /// FNV-1a over every verdict and minimized reproducer byte — the
  /// campaign's reproducibility handle (same seed => same digest).
  uint64_t digest = 0;
};

/// Runs the campaign. IOError only for unwritable repro files; oracle
/// failures are data, not errors.
Result<CampaignResult> RunCampaign(const FuzzOptions& options);

/// Loads a reproducer pack (requires its `repro` section), rebuilds the
/// world it describes, and re-runs the oracle set. `options` supplies
/// the test hooks only (injection flag); the world comes from the file.
Result<Verdict> ReplayScenarioFile(const std::string& path,
                                   const FuzzOptions& options);

}  // namespace hivesim::fuzz

#endif  // HIVESIM_FUZZ_FUZZ_H_

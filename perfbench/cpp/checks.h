#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/experiment.h"

namespace perfbench {

/// Correctness checks of the three workloads. Each returns the problems it
/// found (empty = pass); a non-empty list fails the run. They are pure
/// functions of the workload's outputs and the reference tables in
/// perfbench/data, so the tests can feed them perturbed inputs.

// --- paper_grid ------------------------------------------------------------

/// The outcome of one grid cell that the checks and paper_err_pct read.
struct GridCellResult {
  std::string fleet;  ///< "A-8"
  std::string model;  ///< models::ModelName ("CONV", "RXLM", ...)
  int tbs = 0;
  bool ok = false;
  double sps = 0;
  double granularity = 0;
  double cost_per_million = 0;
};

/// Instance + egress + data priced per VM sums to the fleet total, and the
/// fleet $/h times the billed hours (every VM bills the run's hours) gives
/// that total back.
std::vector<std::string> CheckCostIdentity(
    const std::string& cell, const hivesim::core::ExperimentResult& result);

/// The paper's anchor orderings, which hold for any seed: at every model
/// and batch size, C-3 is slower than A-3, C-8 slower than A-8, and A-8
/// faster than A-1.
std::vector<std::string> CheckOrderings(
    const std::vector<GridCellResult>& cells);

/// A headline row of the default-seed reference: SPS and $/1M of a cell.
struct HeadlineRow {
  std::string fleet;
  std::string model;
  int tbs = 0;
  double sps = 0;
  double cost_per_million = 0;
};

/// Relative tolerance of the headline comparison. Wide enough for a
/// change of floating-point summation order (lazy flow settlement moves
/// SPS by far less), narrow enough to catch a modelling change.
constexpr double kHeadlineTolerance = 5e-3;

std::vector<std::string> CheckHeadlines(
    const std::vector<GridCellResult>& cells,
    const std::vector<HeadlineRow>& reference);

/// One out-of-sample number of EXPERIMENTS.md's "Figs. 7-9" table.
struct PaperRow {
  std::string id;
  /// sps | granularity | speedup (SPS over `base`) | ratio (SPS over the
  /// SPS of fleet `ref` with the same model and batch size).
  std::string kind;
  std::string fleet;
  std::string model;
  double paper = 0;
  double base = 0;
  std::string ref;
  std::string cite;  ///< The EXPERIMENTS.md row.
};

/// The batch size of every paper row (the paper's figures 7-9 use TBS 32K).
constexpr int kPaperTbs = 32768;

/// The simulated value of `row` from the grid's cells.
hivesim::Result<double> SimulatedValue(
    const std::vector<GridCellResult>& cells, const PaperRow& row);

/// Mean absolute % error of the simulated values against the paper's.
hivesim::Result<double> PaperErrorPct(const std::vector<GridCellResult>& cells,
                                      const std::vector<PaperRow>& rows);

// --- fuzz_campaign -----------------------------------------------------------

/// Zero oracle failures, and the digest equals the committed one when
/// `expected` is non-zero (the default seed's reference).
std::vector<std::string> CheckFuzz(int failures, uint64_t digest,
                                   uint64_t expected);

// --- fleet_churn -------------------------------------------------------------

/// Byte and flow accounting of one drained fleet world.
struct ChurnTotals {
  double egress_bytes = 0;      ///< Sum of NodeEgressBytes over all nodes.
  double ingress_bytes = 0;     ///< Sum of NodeIngressBytes.
  double site_pair_bytes = 0;   ///< Sum of BytesBetweenSites over pairs.
  double completed_bytes = 0;   ///< Sizes of the flows that completed.
  double started_bytes = 0;     ///< Sizes of every started flow.
  int64_t starts = 0;
  int64_t completions = 0;
  int64_t cancels = 0;
  size_t active_after_drain = 0;
};

/// Bytes are conserved: egress = ingress = site-pair bytes, each between
/// the completed and the started bytes; starts = completions + cancels;
/// nothing is left in flight.
std::vector<std::string> CheckConservation(const ChurnTotals& totals);

// --- reference tables ----------------------------------------------------------

/// Tab-separated tables with `#` comments; see perfbench/data.
hivesim::Result<std::vector<PaperRow>> LoadPaperTable(const std::string& path);
hivesim::Result<std::vector<HeadlineRow>> LoadHeadlines(
    const std::string& path);
/// The committed campaign digest for (seed, cases); 0 when none is
/// committed for that pair.
hivesim::Result<uint64_t> LoadFuzzDigest(const std::string& path,
                                         uint64_t seed, int cases);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_

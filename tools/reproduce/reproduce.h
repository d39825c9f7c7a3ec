#ifndef HIVESIM_REPRODUCE_REPRODUCE_H_
#define HIVESIM_REPRODUCE_REPRODUCE_H_

#include <functional>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/table_writer.h"
#include "core/sweep_runner.h"

namespace hivesim::reproduce {

/// Whether the simulator was fitted to a paper number (calibration: the
/// values EXPERIMENTS.md marks with an anchor sign) or predicts it.
enum class AnchorTag { kCalibration, kOutOfSample };

/// One paper number next to the simulator's, as `reproduce` reports it.
struct Anchor {
  std::string figure;  ///< Registry id of the figure that printed it.
  std::string experiment;
  std::string metric;
  double paper = 0;
  double simulated = 0;
  AnchorTag tag = AnchorTag::kOutOfSample;

  /// "<figure>/<experiment>/<metric>"; unique across the registry.
  std::string id() const;
};

/// A paper-vs-simulated table. Rows with a paper value are the figure's
/// anchors; rows without one are shape checks the paper prints no
/// number for.
class ComparisonTable {
 public:
  explicit ComparisonTable(std::string title) : title_(std::move(title)) {}

  void Add(std::string experiment, std::string metric, double paper,
           double simulated, AnchorTag tag);
  void AddSimulatedOnly(std::string experiment, std::string metric,
                        double simulated);

 private:
  friend class Page;
  struct Row {
    std::string experiment;
    std::string metric;
    std::optional<double> paper;
    double simulated = 0;
    AnchorTag tag = AnchorTag::kOutOfSample;
  };
  std::string title_;
  std::vector<Row> rows_;
};

/// A render function's view of one figure: it reads the finished cells
/// of the figure's specs and library values, and writes the figure's
/// text and anchors. A failed value or a cell the specs do not declare
/// fails the whole figure, so no fallback value is ever printed.
class Page {
 public:
  Page(std::string figure, const std::vector<core::SweepRunSummary>* runs,
       std::string csv_dir);

  /// The result of the cell of spec `spec` with these axis values
  /// (`chaos` is the chaos axis entry's label).
  const core::ExperimentResult& Cell(size_t spec, std::string_view cluster,
                                     models::ModelId model, int tbs = 32768,
                                     uint64_t seed = 1,
                                     std::string_view chaos = "none");

  /// Unwraps a library result; an error fails the figure (the returned
  /// default value is never shown).
  template <typename T>
  T Value(Result<T> result) {
    if (result.ok()) return std::move(result).value();
    Fail(result.status());
    return T{};
  }

  std::ostream& out() { return out_; }
  /// "\n=== text ===\n", so the output reads like the paper.
  void Heading(std::string_view text);
  void Print(const TableWriter& table) { table.Print(out_); }
  /// Prints the table under its title, records its anchors, and writes
  /// `<csv dir>/<slugified title>.csv` when a CSV directory is set.
  void Print(const ComparisonTable& table);

  const Status& status() const { return status_; }
  std::string text() const { return out_.str(); }
  const std::vector<Anchor>& anchors() const { return anchors_; }

 private:
  void Fail(const Status& status);

  std::string figure_;
  const std::vector<core::SweepRunSummary>* runs_;
  std::string csv_dir_;
  std::ostringstream out_;
  std::vector<Anchor> anchors_;
  Status status_;
};

/// One paper table or figure as data: the sweep grids it needs and the
/// function that prints it from their cells. The grids run once, through
/// `core::RunSweep`, before `render` reads them.
struct Figure {
  std::string id;     ///< "fig7", "table3", "ablation_dpu", ...
  std::string title;  ///< Shown next to the id when an id is unknown.
  std::vector<core::SweepSpec> specs;
  std::function<void(Page&)> render;
};

/// The registry, in paper order.
const std::vector<Figure>& Figures();

/// Renders `figure` from its finished sweeps (`runs[i]` ran
/// `figure.specs[i]`), appending the text to `out` and the anchors to
/// `anchors`. A failed cell fails the figure with the cell's name and
/// status; nothing is written then.
Status RenderFigure(const Figure& figure,
                    const std::vector<core::SweepRunSummary>& runs,
                    const std::string& csv_dir, std::ostream& out,
                    std::vector<Anchor>* anchors);

struct Options {
  std::vector<std::string> figures;  ///< Registry ids; empty = all.
  std::string csv_dir;  ///< Also write every comparison table as CSV.
  int threads = 1;      ///< Sweep workers; the output is the same for any.
};

/// Runs and prints the selected figures in order and returns their
/// anchors. Fails on an unknown id (listing the valid ones) and on the
/// first figure that fails.
Result<std::vector<Anchor>> Reproduce(const Options& options,
                                      std::ostream& out);

}  // namespace hivesim::reproduce

#endif  // HIVESIM_REPRODUCE_REPRODUCE_H_

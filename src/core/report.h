#ifndef HIVESIM_CORE_REPORT_H_
#define HIVESIM_CORE_REPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/table_writer.h"
#include "core/experiment.h"

namespace hivesim::core {

/// One labeled experiment outcome, ready for tabulation.
struct ReportRow {
  std::string name;            ///< e.g. "A-8" or "8xT4 Hivemind".
  ExperimentResult result;
};

/// Renders experiment outcomes the way the paper's figures do: SPS,
/// calc/comm split, granularity, and the cost columns.
///
///   ReportBuilder report("Intra-zone scalability");
///   report.Add("A-2", result2);
///   report.Add("A-8", result8);
///   report.PrintTable(std::cout);
///   report.WriteCsv("a_series.csv");
class ReportBuilder {
 public:
  explicit ReportBuilder(std::string title) : title_(std::move(title)) {}

  void Add(std::string name, ExperimentResult result);

  /// Aligned text table to any stream.
  void PrintTable(std::ostream& os) const;

  /// Machine-readable CSV of the same rows (one line per experiment),
  /// for external plotting. IOError "cannot write <path>" on I/O failure.
  Status WriteCsv(const std::string& path) const;
  /// The CSV document as a string (header + rows).
  std::string ToCsv() const;

  /// The report as a JSON document: {"title":..., "experiments":[...]},
  /// one object per row with the same fields as the CSV.
  std::string ToJson() const;

  size_t size() const { return rows_.size(); }
  const std::vector<ReportRow>& rows() const { return rows_; }

 private:
  std::string title_;
  std::vector<ReportRow> rows_;
};

}  // namespace hivesim::core

#endif  // HIVESIM_CORE_REPORT_H_

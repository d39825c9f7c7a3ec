#include "checks.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>

#include "cloud/cost.h"
#include "common/strings.h"

namespace perfbench {

using hivesim::Result;
using hivesim::Status;
using hivesim::StrCat;
using hivesim::StrFormat;

namespace {

bool Near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-12;
}

/// The non-comment lines of a tab-separated file, split into fields.
Result<std::vector<std::vector<std::string>>> ReadTable(
    const std::string& path, size_t min_fields) {
  std::ifstream in(path);
  if (!in) return Status::IOError(StrCat("cannot read ", path));
  std::vector<std::vector<std::string>> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields = hivesim::StrSplit(line, '\t');
    if (fields.size() < min_fields) {
      return Status::InvalidArgument(
          StrCat(path, ":", line_no, ": expected ", min_fields, " fields"));
    }
    rows.push_back(std::move(fields));
  }
  return rows;
}

Result<double> ParseNumber(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return Status::InvalidArgument(StrCat(where, ": bad number '", text, "'"));
  }
  return value;
}

/// The cell (fleet, model, tbs); nullptr when absent or failed.
const GridCellResult* FindCell(const std::vector<GridCellResult>& cells,
                               const std::string& fleet,
                               const std::string& model, int tbs) {
  for (const GridCellResult& cell : cells) {
    if (cell.ok && cell.fleet == fleet && cell.model == model &&
        cell.tbs == tbs) {
      return &cell;
    }
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> CheckCostIdentity(
    const std::string& cell, const hivesim::core::ExperimentResult& result) {
  std::vector<std::string> problems;
  hivesim::cloud::CostBreakdown sum;
  for (const hivesim::cloud::VmUsage& usage : result.usages) {
    sum += hivesim::cloud::PriceVm(usage);
  }
  const hivesim::cloud::CostBreakdown& fleet = result.fleet_cost;
  const double parts = fleet.instance + fleet.internal_egress +
                       fleet.external_egress + fleet.data_loading;
  if (!Near(sum.Total(), fleet.Total(), 1e-9) ||
      !Near(sum.instance, fleet.instance, 1e-9) ||
      !Near(sum.data_loading, fleet.data_loading, 1e-9) ||
      !Near(parts, fleet.Total(), 1e-9)) {
    problems.push_back(StrFormat(
        "%s: per-VM cost sum $%.9g (instance %.9g, data %.9g) != fleet "
        "total $%.9g",
        cell.c_str(), sum.Total(), sum.instance, sum.data_loading,
        fleet.Total()));
  }
  const double billed_hours =
      result.usages.empty() ? 0.0 : result.usages.front().hours;
  if (!Near(result.fleet_cost_per_hour * billed_hours, fleet.Total(), 1e-9)) {
    problems.push_back(StrFormat("%s: $%.9g/h x %.9g h != fleet total $%.9g",
                                 cell.c_str(), result.fleet_cost_per_hour,
                                 billed_hours, fleet.Total()));
  }
  return problems;
}

std::vector<std::string> CheckOrderings(
    const std::vector<GridCellResult>& cells) {
  struct Pair {
    const char* slower;
    const char* faster;
  };
  static const Pair kPairs[] = {{"C-3", "A-3"}, {"C-8", "A-8"}, {"A-1", "A-8"}};
  std::set<std::pair<std::string, int>> axes;
  for (const GridCellResult& cell : cells) axes.emplace(cell.model, cell.tbs);
  std::vector<std::string> problems;
  for (const auto& [model, tbs] : axes) {
    for (const Pair& pair : kPairs) {
      const GridCellResult* slow = FindCell(cells, pair.slower, model, tbs);
      const GridCellResult* fast = FindCell(cells, pair.faster, model, tbs);
      if (slow == nullptr || fast == nullptr) {
        problems.push_back(StrCat("ordering ", pair.slower, " < ",
                                  pair.faster, " at ", model, "/", tbs,
                                  ": cell missing"));
      } else if (!(slow->sps < fast->sps)) {
        problems.push_back(StrFormat(
            "ordering %s < %s at %s/%d violated: %.6g vs %.6g SPS",
            pair.slower, pair.faster, model.c_str(), tbs, slow->sps,
            fast->sps));
      }
    }
  }
  return problems;
}

std::vector<std::string> CheckHeadlines(
    const std::vector<GridCellResult>& cells,
    const std::vector<HeadlineRow>& reference) {
  std::vector<std::string> problems;
  if (reference.empty()) problems.push_back("headline reference is empty");
  for (const HeadlineRow& row : reference) {
    const GridCellResult* cell = FindCell(cells, row.fleet, row.model, row.tbs);
    if (cell == nullptr) {
      problems.push_back(StrCat("headline ", row.fleet, "/", row.model, "/",
                                row.tbs, ": cell missing or failed"));
      continue;
    }
    if (!Near(cell->sps, row.sps, kHeadlineTolerance) ||
        !Near(cell->cost_per_million, row.cost_per_million,
              kHeadlineTolerance)) {
      problems.push_back(StrFormat(
          "headline %s/%s/%d: %.9g SPS, $%.9g/1M; reference %.9g SPS, "
          "$%.9g/1M (tolerance %.2g relative)",
          row.fleet.c_str(), row.model.c_str(), row.tbs, cell->sps,
          cell->cost_per_million, row.sps, row.cost_per_million,
          kHeadlineTolerance));
    }
  }
  return problems;
}

Result<double> SimulatedValue(const std::vector<GridCellResult>& cells,
                              const PaperRow& row) {
  const GridCellResult* cell = FindCell(cells, row.fleet, row.model, kPaperTbs);
  if (cell == nullptr) {
    return Status::NotFound(StrCat(row.id, ": no cell ", row.fleet, "/",
                                   row.model, "/", kPaperTbs));
  }
  if (row.kind == "sps") return cell->sps;
  if (row.kind == "granularity") return cell->granularity;
  if (row.kind == "speedup") return cell->sps / row.base;
  if (row.kind == "ratio") {
    const GridCellResult* ref = FindCell(cells, row.ref, row.model, kPaperTbs);
    if (ref == nullptr || ref->sps <= 0) {
      return Status::NotFound(StrCat(row.id, ": no reference cell ", row.ref));
    }
    return cell->sps / ref->sps;
  }
  return Status::InvalidArgument(StrCat(row.id, ": unknown kind ", row.kind));
}

Result<double> PaperErrorPct(const std::vector<GridCellResult>& cells,
                             const std::vector<PaperRow>& rows) {
  if (rows.empty()) return Status::InvalidArgument("paper table is empty");
  double sum = 0;
  for (const PaperRow& row : rows) {
    double simulated = 0;
    HIVESIM_ASSIGN_OR_RETURN(simulated, SimulatedValue(cells, row));
    sum += std::fabs(simulated - row.paper) / std::fabs(row.paper) * 100.0;
  }
  return sum / static_cast<double>(rows.size());
}

std::vector<std::string> CheckFuzz(int failures, uint64_t digest,
                                   uint64_t expected) {
  std::vector<std::string> problems;
  if (failures != 0) {
    problems.push_back(StrCat("fuzz campaign: ", failures, " oracle failures"));
  }
  if (expected != 0 && digest != expected) {
    problems.push_back(StrFormat(
        "fuzz campaign digest %016llx != committed %016llx",
        static_cast<unsigned long long>(digest),
        static_cast<unsigned long long>(expected)));
  }
  return problems;
}

std::vector<std::string> CheckConservation(const ChurnTotals& t) {
  constexpr double kRel = 1e-9;
  std::vector<std::string> problems;
  if (!Near(t.egress_bytes, t.ingress_bytes, kRel) ||
      !Near(t.egress_bytes, t.site_pair_bytes, kRel)) {
    problems.push_back(StrFormat(
        "bytes not conserved: egress %.17g, ingress %.17g, site pairs %.17g",
        t.egress_bytes, t.ingress_bytes, t.site_pair_bytes));
  }
  for (const double metered :
       {t.egress_bytes, t.ingress_bytes, t.site_pair_bytes}) {
    const double slack = kRel * t.started_bytes;
    if (metered < t.completed_bytes - slack ||
        metered > t.started_bytes + slack) {
      problems.push_back(StrFormat(
          "metered %.17g bytes outside [completed %.17g, started %.17g]",
          metered, t.completed_bytes, t.started_bytes));
      break;
    }
  }
  if (t.starts != t.completions + t.cancels) {
    problems.push_back(StrCat("starts ", t.starts, " != completions ",
                              t.completions, " + cancels ", t.cancels));
  }
  if (t.active_after_drain != 0) {
    problems.push_back(
        StrCat(t.active_after_drain, " flows still active after the drain"));
  }
  return problems;
}

Result<std::vector<PaperRow>> LoadPaperTable(const std::string& path) {
  std::vector<std::vector<std::string>> table;
  HIVESIM_ASSIGN_OR_RETURN(table, ReadTable(path, 8));
  std::vector<PaperRow> rows;
  for (const std::vector<std::string>& f : table) {
    PaperRow row;
    row.id = f[0];
    row.kind = f[1];
    row.fleet = f[2];
    row.model = f[3];
    HIVESIM_ASSIGN_OR_RETURN(row.paper, ParseNumber(f[4], row.id));
    if (f[5] != "-") HIVESIM_ASSIGN_OR_RETURN(row.base, ParseNumber(f[5], row.id));
    row.ref = f[6];
    row.cite = f[7];
    if (row.paper == 0 || (row.kind == "speedup" && row.base <= 0)) {
      return Status::InvalidArgument(StrCat(path, ": row ", row.id,
                                            " has a zero paper value or base"));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<std::vector<HeadlineRow>> LoadHeadlines(const std::string& path) {
  std::vector<std::vector<std::string>> table;
  HIVESIM_ASSIGN_OR_RETURN(table, ReadTable(path, 5));
  std::vector<HeadlineRow> rows;
  for (const std::vector<std::string>& f : table) {
    HeadlineRow row;
    row.fleet = f[0];
    row.model = f[1];
    double tbs = 0;
    HIVESIM_ASSIGN_OR_RETURN(tbs, ParseNumber(f[2], path));
    row.tbs = static_cast<int>(tbs);
    HIVESIM_ASSIGN_OR_RETURN(row.sps, ParseNumber(f[3], path));
    HIVESIM_ASSIGN_OR_RETURN(row.cost_per_million, ParseNumber(f[4], path));
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<uint64_t> LoadFuzzDigest(const std::string& path, uint64_t seed,
                                int cases) {
  std::vector<std::vector<std::string>> table;
  HIVESIM_ASSIGN_OR_RETURN(table, ReadTable(path, 3));
  for (const std::vector<std::string>& f : table) {
    if (f[0] == std::to_string(seed) && f[1] == std::to_string(cases)) {
      return std::strtoull(f[2].c_str(), nullptr, 16);
    }
  }
  return uint64_t{0};
}

}  // namespace perfbench

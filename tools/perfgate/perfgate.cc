#include "perfgate/perfgate.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/json_parse.h"
#include "common/strings.h"
#include "common/table_writer.h"

namespace hivesim::perfgate {
namespace {

/// A baseline's floor on the ratio of one counter between two benches.
struct RatioFloor {
  std::string counter;
  std::string numerator;
  std::string denominator;
  double min = 0;
};

/// One BENCH_<area>.json, decoded into sorted maps.
struct AreaDoc {
  std::string area;
  std::map<std::string, double> benches;     ///< name -> ns_per_iter.
  /// bench name -> counter name -> value (only benches that report any).
  std::map<std::string, std::map<std::string, double>> counters;
  std::map<std::string, double> checks;      ///< key -> exact value.
  std::map<std::string, double> thresholds;  ///< Optional, baseline only.
  std::vector<RatioFloor> floors;            ///< Optional, baseline only.
  double max_rss_bytes = 0;                  ///< 0 = not recorded.
};

/// The reserved row/threshold name for the per-area memory ceiling.
constexpr const char* kRssKey = "max_rss_bytes";

std::string AreaPath(const std::string& dir, const std::string& area) {
  return StrCat(dir, "/BENCH_", area, ".json");
}

Result<AreaDoc> LoadArea(const std::string& dir, const std::string& area) {
  const std::string path = AreaPath(dir, area);
  Result<JsonValue> parsed = ParseJsonFile(path);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = *parsed;
  if (!root.is_object()) {
    return Status::InvalidArgument(path + ": top level is not an object");
  }

  AreaDoc doc;
  const JsonValue* area_field = root.Find("area");
  doc.area = area_field ? area_field->StringOr("") : "";
  if (doc.area != area) {
    return Status::InvalidArgument(
        StrCat(path, ": \"area\" is \"", doc.area, "\", expected \"", area,
               "\""));
  }

  const JsonValue* benches = root.Find("benches");
  if (benches == nullptr || !benches->is_object()) {
    return Status::InvalidArgument(path + ": missing \"benches\" object");
  }
  for (const auto& [name, entry] : benches->object) {
    const JsonValue* ns = entry.Find("ns_per_iter");
    if (ns == nullptr || !ns->is_number() || !(ns->number_value > 0)) {
      return Status::InvalidArgument(
          StrCat(path, ": bench \"", name,
                 "\" has no positive \"ns_per_iter\""));
    }
    doc.benches[name] = ns->number_value;
    if (const JsonValue* counters = entry.Find("counters")) {
      if (!counters->is_object()) {
        return Status::InvalidArgument(
            StrCat(path, ": bench \"", name, "\" counters is not an object"));
      }
      for (const auto& [counter, value] : counters->object) {
        if (!value.is_number()) {
          return Status::InvalidArgument(
              StrCat(path, ": counter \"", counter, "\" of bench \"", name,
                     "\" is not a number"));
        }
        doc.counters[name][counter] = value.number_value;
      }
    }
  }

  if (const JsonValue* checks = root.Find("checks")) {
    if (!checks->is_object()) {
      return Status::InvalidArgument(path + ": \"checks\" is not an object");
    }
    for (const auto& [key, value] : checks->object) {
      if (!value.is_number()) {
        return Status::InvalidArgument(
            StrCat(path, ": check \"", key, "\" is not a number"));
      }
      doc.checks[key] = value.number_value;
    }
  }

  if (const JsonValue* rss = root.Find(kRssKey)) {
    if (!rss->is_number() || rss->number_value < 0) {
      return Status::InvalidArgument(
          StrCat(path, ": \"", kRssKey, "\" is not a non-negative number"));
    }
    doc.max_rss_bytes = rss->number_value;
  }

  if (const JsonValue* thresholds = root.Find("thresholds")) {
    if (!thresholds->is_object()) {
      return Status::InvalidArgument(path +
                                     ": \"thresholds\" is not an object");
    }
    for (const auto& [name, value] : thresholds->object) {
      if (!value.is_number() || !(value.number_value > 0)) {
        return Status::InvalidArgument(
            StrCat(path, ": threshold for \"", name, "\" is not positive"));
      }
      doc.thresholds[name] = value.number_value;
    }
  }

  if (const JsonValue* floors = root.Find("floors")) {
    if (!floors->is_array()) {
      return Status::InvalidArgument(path + ": \"floors\" is not an array");
    }
    for (const JsonValue& entry : floors->array) {
      RatioFloor floor;
      const JsonValue* min = entry.Find("min");
      for (const auto& [key, field] :
           {std::pair{"counter", &floor.counter},
            std::pair{"numerator", &floor.numerator},
            std::pair{"denominator", &floor.denominator}}) {
        const JsonValue* value = entry.Find(key);
        if (value == nullptr || !value->is_string()) {
          return Status::InvalidArgument(
              StrCat(path, ": a floor has no string \"", key, "\""));
        }
        *field = value->string_value;
      }
      if (min == nullptr || !min->is_number() || !(min->number_value > 0)) {
        return Status::InvalidArgument(
            StrCat(path, ": floor on \"", floor.counter,
                   "\" has no positive \"min\""));
      }
      floor.min = min->number_value;
      doc.floors.push_back(std::move(floor));
    }
  }
  return doc;
}

/// Name of a floor's report row: "items/s BM_X/100000 / BM_X/1000".
std::string FloorName(const RatioFloor& floor) {
  return StrCat(floor.counter, " ", floor.numerator, " / ", floor.denominator);
}

/// The current run's counter ratio a floor bounds; NaN when either bench
/// or counter is missing.
double FloorRatio(const AreaDoc& current, const RatioFloor& floor) {
  const auto value = [&](const std::string& bench) {
    const auto it = current.counters.find(bench);
    if (it == current.counters.end()) return std::nan("");
    const auto counter = it->second.find(floor.counter);
    return counter == it->second.end() ? std::nan("") : counter->second;
  };
  return value(floor.numerator) / value(floor.denominator);
}

Status WriteBaseline(const std::string& dir, const AreaDoc& doc) {
  JsonWriter json;
  json.BeginObject();
  json.Key("area").String(doc.area);
  json.Key("benches").BeginObject();
  for (const auto& [name, ns] : doc.benches) {
    json.Key(name).BeginObject();
    if (auto it = doc.counters.find(name); it != doc.counters.end()) {
      json.Key("counters").BeginObject();
      for (const auto& [counter, value] : it->second) {
        json.Key(counter).Number(value);
      }
      json.EndObject();
    }
    json.Key("ns_per_iter").Number(ns).EndObject();
  }
  json.EndObject();
  json.Key("checks").BeginObject();
  for (const auto& [key, value] : doc.checks) {
    json.Key(key).Number(value);
  }
  json.EndObject();
  if (!doc.floors.empty()) {
    json.Key("floors").BeginArray();
    for (const RatioFloor& floor : doc.floors) {
      json.BeginObject()
          .Key("counter").String(floor.counter)
          .Key("denominator").String(floor.denominator)
          .Key("min").Number(floor.min)
          .Key("numerator").String(floor.numerator)
          .EndObject();
    }
    json.EndArray();
  }
  if (doc.max_rss_bytes > 0) {
    json.Key(kRssKey).Number(doc.max_rss_bytes);
  }
  json.Key("schema").String("hivesim-bench/1");
  if (!doc.thresholds.empty()) {
    json.Key("thresholds").BeginObject();
    for (const auto& [name, value] : doc.thresholds) {
      json.Key(name).Number(value);
    }
    json.EndObject();
  }
  json.EndObject();

  const std::string path = AreaPath(dir, doc.area);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.ToString() << "\n";
  out.flush();
  if (!out) return Status::IOError("cannot write " + path);
  return Status::OK();
}

void CompareArea(const AreaDoc& baseline, const AreaDoc& current,
                 double default_threshold, double rss_threshold,
                 GateReport& report) {
  // Benchmarks: relative-threshold comparison. Walk the union of both
  // sorted maps so every bench lands in exactly one row.
  auto b = baseline.benches.begin();
  auto c = current.benches.begin();
  while (b != baseline.benches.end() || c != current.benches.end()) {
    GateRow row;
    row.area = current.area;
    if (c == current.benches.end() ||
        (b != baseline.benches.end() && b->first < c->first)) {
      row.name = b->first;
      row.baseline = b->second;
      row.status = RowStatus::kMissing;
      ++report.missing;
      ++b;
    } else if (b == baseline.benches.end() || c->first < b->first) {
      row.name = c->first;
      row.current = c->second;
      row.status = RowStatus::kNew;
      ++report.new_benches;
      ++c;
    } else {
      row.name = b->first;
      row.baseline = b->second;
      row.current = c->second;
      const auto override_it = baseline.thresholds.find(row.name);
      row.threshold = override_it != baseline.thresholds.end()
                          ? override_it->second
                          : default_threshold;
      const double relative = row.current / row.baseline - 1.0;
      if (relative > row.threshold) {
        row.status = RowStatus::kRegressed;
        ++report.regressions;
      } else if (relative < -row.threshold) {
        row.status = RowStatus::kImproved;
        ++report.improvements;
      } else {
        row.status = RowStatus::kOk;
      }
      ++b;
      ++c;
    }
    report.rows.push_back(row);
  }

  // Memory ceiling: relative comparison like a timing, but against the
  // (generous) RSS threshold. A baseline without a recorded ceiling makes
  // the current value informational (new); a baseline *with* one that the
  // current run stopped reporting is lost coverage, like a missing bench.
  if (baseline.max_rss_bytes > 0 || current.max_rss_bytes > 0) {
    GateRow row;
    row.area = current.area;
    row.name = kRssKey;
    row.baseline = baseline.max_rss_bytes;
    row.current = current.max_rss_bytes;
    if (baseline.max_rss_bytes <= 0) {
      row.status = RowStatus::kNew;
      ++report.new_benches;
    } else if (current.max_rss_bytes <= 0) {
      row.status = RowStatus::kMissing;
      ++report.missing;
    } else {
      const auto override_it = baseline.thresholds.find(kRssKey);
      row.threshold = override_it != baseline.thresholds.end()
                          ? override_it->second
                          : rss_threshold;
      const double relative = row.current / row.baseline - 1.0;
      if (relative > row.threshold) {
        row.status = RowStatus::kRegressed;
        ++report.regressions;
      } else if (relative < -row.threshold) {
        row.status = RowStatus::kImproved;
        ++report.improvements;
      } else {
        row.status = RowStatus::kOk;
      }
    }
    report.rows.push_back(row);
  }

  // Floors: the current counter ratio against the baseline's minimum. An
  // unmeasurable ratio (a bench or counter gone) fails like a low one.
  for (const RatioFloor& floor : baseline.floors) {
    GateRow row;
    row.area = current.area;
    row.name = FloorName(floor);
    row.baseline = floor.min;
    row.current = FloorRatio(current, floor);
    if (row.current >= floor.min) {
      row.status = RowStatus::kFloorOk;
    } else {
      row.status = RowStatus::kBelowFloor;
      ++report.below_floor;
    }
    report.rows.push_back(row);
  }

  // Checks: exact equality over the union of keys. A key present on one
  // side only is also a mismatch — checks are the determinism contract,
  // so losing one silently would hollow out the gate.
  std::map<std::string, std::pair<const double*, const double*>> merged;
  for (const auto& [key, value] : baseline.checks) {
    merged[key].first = &value;
  }
  for (const auto& [key, value] : current.checks) {
    merged[key].second = &value;
  }
  for (const auto& [key, sides] : merged) {
    GateRow row;
    row.area = current.area;
    row.name = key;
    row.baseline = sides.first ? *sides.first : std::nan("");
    row.current = sides.second ? *sides.second : std::nan("");
    const bool match = sides.first && sides.second &&
                       *sides.first == *sides.second;
    row.status = match ? RowStatus::kCheckOk : RowStatus::kCheckMismatch;
    if (!match) ++report.check_mismatches;
    report.rows.push_back(row);
  }
}

std::string StatusLabel(RowStatus status) {
  switch (status) {
    case RowStatus::kOk: return "ok";
    case RowStatus::kImproved: return "IMPROVED";
    case RowStatus::kRegressed: return "REGRESSED";
    case RowStatus::kNew: return "new (no baseline)";
    case RowStatus::kMissing: return "MISSING";
    case RowStatus::kCheckOk: return "check ok";
    case RowStatus::kCheckMismatch: return "CHECK MISMATCH";
    case RowStatus::kFloorOk: return "floor ok";
    case RowStatus::kBelowFloor: return "BELOW FLOOR";
  }
  return "?";
}

bool IsCheckRow(const GateRow& row) {
  return row.status == RowStatus::kCheckOk ||
         row.status == RowStatus::kCheckMismatch;
}

bool IsFloorRow(const GateRow& row) {
  return row.status == RowStatus::kFloorOk ||
         row.status == RowStatus::kBelowFloor;
}

std::string FormatValue(const GateRow& row, double value) {
  if (std::isnan(value)) return "-";
  // Timings as ns with thousands precision; checks verbatim; floor
  // ratios as percentages.
  if (IsCheckRow(row)) return StrFormat("%.17g", value);
  if (IsFloorRow(row)) return StrFormat("%.2f%%", value * 100);
  return StrFormat("%.0f", value);
}

}  // namespace

Result<GateReport> Run(const GateOptions& options) {
  GateReport report;
  for (const std::string& area : options.areas) {
    Result<AreaDoc> current = LoadArea(options.current_dir, area);
    if (!current.ok()) return current.status();

    if (options.update) {
      AreaDoc updated = *current;
      // Keep per-bench threshold overrides across updates; they are
      // curated by hand, not produced by the bench binaries.
      Result<AreaDoc> previous = LoadArea(options.baseline_dir, area);
      if (previous.ok()) {
        updated.thresholds = previous->thresholds;
        updated.floors = previous->floors;
      }
      HIVESIM_RETURN_IF_ERROR(WriteBaseline(options.baseline_dir, updated));
      for (const auto& [name, ns] : updated.benches) {
        GateRow row;
        row.area = area;
        row.name = name;
        row.current = ns;
        row.baseline = ns;
        row.status = RowStatus::kOk;
        report.rows.push_back(row);
      }
      continue;
    }

    Result<AreaDoc> baseline = LoadArea(options.baseline_dir, area);
    if (!baseline.ok()) {
      // kIOError means the baseline file does not exist (a parse failure
      // comes back as kInvalidArgument and stays fatal either way). With
      // --allow-new-area that is a brand-new bench area: surface every
      // current value as a "new" row so the report shows what will be
      // recorded, and keep gating the remaining areas.
      if (options.allow_new_area &&
          baseline.status().code() == StatusCode::kIOError) {
        for (const auto& [name, ns] : current->benches) {
          GateRow row;
          row.area = area;
          row.name = name;
          row.current = ns;
          row.status = RowStatus::kNew;
          ++report.new_benches;
          report.rows.push_back(row);
        }
        if (current->max_rss_bytes > 0) {
          GateRow row;
          row.area = area;
          row.name = kRssKey;
          row.current = current->max_rss_bytes;
          row.status = RowStatus::kNew;
          ++report.new_benches;
          report.rows.push_back(row);
        }
        continue;
      }
      return baseline.status();
    }
    CompareArea(*baseline, *current, options.default_threshold,
                options.rss_threshold, report);
  }
  report.failed = report.regressions > 0 || report.missing > 0 ||
                  report.check_mismatches > 0 || report.below_floor > 0;
  return report;
}

std::string FormatReport(const GateReport& report) {
  std::ostringstream out;
  TableWriter table(
      {"Area", "Bench / check", "Baseline", "Current", "Delta", "Limit",
       "Status"});
  for (const GateRow& row : report.rows) {
    std::string delta = "-";
    std::string limit = "-";
    if (IsFloorRow(row)) {
      limit = StrFormat(">=%.2f%%", row.baseline * 100);
    } else if (!IsCheckRow(row) && row.baseline > 0 && row.current > 0) {
      delta = StrFormat("%+.1f%%", (row.current / row.baseline - 1) * 100);
      limit = StrFormat("+%.0f%%", row.threshold * 100);
    }
    table.AddRow({row.area, row.name, FormatValue(row, row.baseline),
                  FormatValue(row, row.current), delta, limit,
                  StatusLabel(row.status)});
  }
  table.Print(out);
  out << StrFormat(
      "perf-gate: %d regressed, %d improved, %d check mismatches, "
      "%d below floor, %d missing, %d new -> %s\n",
      report.regressions, report.improvements, report.check_mismatches,
      report.below_floor, report.missing, report.new_benches,
      report.failed ? "FAIL" : "PASS");
  return out.str();
}

}  // namespace hivesim::perfgate

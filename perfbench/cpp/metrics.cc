#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "common/json.h"
#include "common/json_parse.h"

namespace perfbench {

namespace {
constexpr unsigned kGridChurn = kPaperGrid | kFleetChurn;
}  // namespace

Workload ParseWorkload(std::string_view name) {
  if (name == "paper_grid") return kPaperGrid;
  if (name == "fleet_churn") return kFleetChurn;
  if (name == "fuzz_campaign") return kFuzzCampaign;
  return static_cast<Workload>(0);
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case kPaperGrid: return "paper_grid";
    case kFleetChurn: return "fleet_churn";
    case kFuzzCampaign: return "fuzz_campaign";
  }
  return "unknown";
}

unsigned MeasuredOn(std::string_view name) {
  static const std::map<std::string_view, unsigned> measured_on = {
      // End to end.
      {"setup_s", kAllWorkloads},
      {"sim_s_per_host_s", kAllWorkloads},
      {"step_ms_p50", kAllWorkloads},
      {"step_ms_p90", kAllWorkloads},
      {"peak_rss_mb", kAllWorkloads},
      // core
      {"core.expand_s", kPaperGrid},
      {"core.build_s", kPaperGrid},
      {"core.build.calls", kPaperGrid},
      {"core.complete_s", kPaperGrid},
      {"core.complete.calls", kPaperGrid},
      // hivemind
      {"trainer.epochs", kPaperGrid},
      {"trainer.round_retries", kPaperGrid},
      {"trainer.rounds_degraded", kPaperGrid},
      {"trainer.host_us_per_epoch", kPaperGrid},
      // collective
      {"collective.rounds", kPaperGrid},
      {"collective.transfers", kPaperGrid},
      {"collective.aborts", kPaperGrid},
      {"collective.abort_ratio", kPaperGrid},
      // net
      {"net.flows_started", kGridChurn},
      {"net.flows_completed", kGridChurn},
      {"net.flows_cancelled", kGridChurn},
      {"net.start_flow.calls", kFleetChurn},
      {"net.start_flow_us_p50", kFleetChurn},
      {"net.start_flow_us_p90", kFleetChurn},
      {"net.cancel_flow.calls", kFleetChurn},
      {"net.cancel_flow_us_p50", kFleetChurn},
      {"net.cancel_flow_us_p90", kFleetChurn},
      {"net.meter_read.calls", kFleetChurn},
      {"net.meter_read_us_p50", kFleetChurn},
      {"net.meter_read_us_p90", kFleetChurn},
      {"net.active_flows_p50", kFleetChurn},
      // sim
      {"sim.events_fired", kGridChurn},
      {"sim.events_cancelled", kGridChurn},
      {"sim.host_ns_per_event", kGridChurn},
      {"sim.run_until.self_s", kFleetChurn},
      // telemetry
      {"telemetry.on_off_ratio", kGridChurn},
      {"telemetry.render_s", kGridChurn},
      {"telemetry.trace_bytes", kGridChurn},
      // fuzz (drives faults and scenario)
      {"fuzz.generate_s", kFuzzCampaign},
      {"fuzz.generate.calls", kFuzzCampaign},
      {"fuzz.oracles_ms_p50", kFuzzCampaign},
      {"fuzz.oracles_ms_p90", kFuzzCampaign},
      {"fuzz.cases", kFuzzCampaign},
      {"fuzz.ran", kFuzzCampaign},
      {"fuzz.rejected", kFuzzCampaign},
      {"fuzz.failures", kFuzzCampaign},
      {"fuzz.reject_ratio", kFuzzCampaign},
      // Paper fidelity: exact for a seed, so it rides with the traced run
      // (see README.md for why it is not an end-to-end metric).
      {"paper_err_pct", kPaperGrid},
      // The benchmark itself.
      {"step.samples", kAllWorkloads},
      {"bench.trace_overhead_ratio", kAllWorkloads},
  };
  const auto it = measured_on.find(name);
  return it == measured_on.end() ? 0u : it->second;
}

hivesim::Result<Catalogue> LoadCatalogue(const std::string& path) {
  hivesim::JsonValue spec;
  HIVESIM_ASSIGN_OR_RETURN(spec, hivesim::ParseJsonFile(path));
  Catalogue catalogue;
  for (const auto& [key, out] :
       {std::pair{"end_to_end", &catalogue.end_to_end},
        std::pair{"per_layer", &catalogue.per_layer}}) {
    const hivesim::JsonValue* list = spec.Find(key);
    if (list == nullptr || !list->is_array()) {
      return hivesim::Status::InvalidArgument(path + ": no \"" + key +
                                              "\" list");
    }
    for (const hivesim::JsonValue& entry : list->array) {
      MetricSpec metric;
      if (const hivesim::JsonValue* name = entry.Find("name")) {
        metric.name = name->StringOr("");
      }
      if (const hivesim::JsonValue* unit = entry.Find("unit")) {
        metric.unit = unit->StringOr("");
      }
      if (!ValidMetricName(metric.name) || !ValidUnit(metric.unit)) {
        return hivesim::Status::InvalidArgument(
            path + ": bad metric name or unit \"" + metric.name + "\" \"" +
            metric.unit + "\"");
      }
      metric.measured_on = MeasuredOn(metric.name);
      if (metric.measured_on == 0) {
        return hivesim::Status::InvalidArgument(
            path + ": the benchmark does not measure " + metric.name);
      }
      out->push_back(std::move(metric));
    }
  }
  return catalogue;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(
          static_cast<unsigned char>(name.front()))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

std::vector<std::string> AssembleMetrics(
    const std::vector<MetricSpec>& specs, Workload workload,
    const std::map<std::string, double>& values,
    std::vector<std::pair<const MetricSpec*, double>>* out,
    std::vector<std::string>* unmeasured) {
  std::vector<std::string> problems;
  for (const MetricSpec& spec : specs) {
    if ((spec.measured_on & workload) == 0) {
      out->emplace_back(&spec, 0.0);
      unmeasured->push_back(spec.name);
      continue;
    }
    const auto it = values.find(spec.name);
    if (it == values.end()) {
      problems.push_back("metric " + spec.name + " missing");
      out->emplace_back(&spec, 0.0);
      continue;
    }
    if (!std::isfinite(it->second)) {
      problems.push_back("metric " + spec.name + " is not finite");
    }
    out->emplace_back(&spec, it->second);
  }
  for (const auto& entry : values) {
    const bool measured = std::any_of(
        specs.begin(), specs.end(), [&](const MetricSpec& spec) {
          return entry.first == spec.name && (spec.measured_on & workload);
        });
    if (!measured) problems.push_back("uncatalogued metric " + entry.first);
  }
  return problems;
}

std::string ResultJson(
    bool correct, int64_t attempted, int64_t failed,
    const std::vector<std::pair<const MetricSpec*, double>>& metrics) {
  hivesim::JsonWriter json;
  json.BeginObject();
  json.Key("correct").Bool(correct);
  json.Key("attempted").Int(attempted);
  json.Key("failed").Int(failed);
  json.Key("metrics").BeginObject();
  for (const auto& [spec, value] : metrics) {
    json.Key(spec->name).BeginObject();
    json.Key("value").Number(value);
    json.Key("unit").String(spec->unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

hivesim::Result<double> PeakRssMb() {
  // VmHWM is the peak of this program's own address space. getrusage's
  // ru_maxrss would also count the launcher's peak (run.py's Python), which
  // Linux carries across execve and which exceeds a small workload's own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return hivesim::Status::NotFound("no VmHWM in /proc/self/status");
}

hivesim::Status ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;  // 5: reset the peak RSS (Linux 4.0+).
  return clear_refs ? hivesim::Status::OK()
                    : hivesim::Status::Unavailable(
                          "cannot reset VmHWM through /proc/self/clear_refs");
}

}  // namespace perfbench

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// The benchmark's workloads, as bits so a metric can name the ones that
/// measure it.
enum Workload : unsigned {
  kPaperGrid = 1u << 0,
  kFleetChurn = 1u << 1,
  kFuzzCampaign = 1u << 2,
};
constexpr unsigned kAllWorkloads = kPaperGrid | kFleetChurn | kFuzzCampaign;

/// Parses "paper_grid", "fleet_churn", "fuzz_campaign"; 0 when unknown.
Workload ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);

/// One metric the benchmark reports: its name and unit as BENCHMARK.json
/// lists them, and the workloads that measure it.
struct MetricSpec {
  std::string name;
  std::string unit;
  /// Workloads on which the metric is measured. On the others it is
  /// reported as 0 (the layer is not exercised there, or not observable
  /// through the public API; README.md gives the reason for each).
  unsigned measured_on = 0;
};

/// BENCHMARK.json's metrics, the one list of names and units.
struct Catalogue {
  std::vector<MetricSpec> end_to_end;  ///< Reported by `--trace 0`.
  std::vector<MetricSpec> per_layer;   ///< Reported by `--trace 1`.
};

/// The workloads that measure the metric `name`; 0 for a name this program
/// has no measurement of.
unsigned MeasuredOn(std::string_view name);

/// Reads the catalogue from BENCHMARK.json. Fails on an invalid name or
/// unit, or on a metric this program does not measure.
hivesim::Result<Catalogue> LoadCatalogue(const std::string& path);

/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
bool ValidMetricName(std::string_view name);
/// At most 16 of letters, digits, `_ / % . -`.
bool ValidUnit(std::string_view unit);

/// Linear interpolation between closest ranks (q in [0, 1]); 0 for an
/// empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Fills every metric of `specs` from `values` in catalogue order. A
/// metric measured on `workload` must be present; one that is not is
/// reported as 0 and named in `unmeasured`. Returns the problems found (a
/// missing or unknown name is a bug in the benchmark).
std::vector<std::string> AssembleMetrics(
    const std::vector<MetricSpec>& specs, Workload workload,
    const std::map<std::string, double>& values,
    std::vector<std::pair<const MetricSpec*, double>>* out,
    std::vector<std::string>* unmeasured);

/// The result line: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}.
std::string ResultJson(
    bool correct, int64_t attempted, int64_t failed,
    const std::vector<std::pair<const MetricSpec*, double>>& metrics);

/// Peak resident set size of this process in MB: VmHWM from
/// /proc/self/status.
hivesim::Result<double> PeakRssMb();
/// Sets VmHWM back to the current resident set, so that PeakRssMb() then
/// gives the peak of what runs in between.
hivesim::Status ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_

// The hivesim benchmark program: runs one workload in this process and prints
// its metrics. Normally started through perfbench/run.py, which builds it:
//
//   perfbench --workload paper_grid|fleet_churn|fuzz_campaign --seed N
//             --seconds S --trace 0|1 --data-dir perfbench/data
//             --benchmark-json BENCHMARK.json [--trace-out spans.json]
//   perfbench --workload W --seed N --emit-reference
//
// The last line of stdout is the result object. Exit code 1 means a
// correctness check failed (the problems go to stderr), 2 a usage error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "workloads.h"

namespace {

using namespace perfbench;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --data-dir DIR --benchmark-json FILE "
               "[--trace-out FILE] [--emit-reference]\n",
               message);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string trace_out;
  std::string benchmark_json;
  bool emit_reference = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit-reference") {
      emit_reference = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = ParseWorkload(value);
      if (options.workload == 0) return Usage("unknown workload");
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &number)) return Usage("bad --seed");
      options.seed = number;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &number) || number < 1 || number > 3600) {
        return Usage("--seconds must be 1..3600");
      }
      options.seconds = static_cast<double>(number);
    } else if (arg == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") {
        return Usage("--trace must be 0 or 1");
      }
      options.trace = std::string(value) == "1";
    } else if (arg == "--data-dir") {
      options.data_dir = value;
    } else if (arg == "--benchmark-json") {
      benchmark_json = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  if (emit_reference) {
    if (options.workload == kPaperGrid) {
      std::fputs(EmitGridHeadlines(options.seed).c_str(), stdout);
    } else if (options.workload == kFuzzCampaign) {
      std::fputs(EmitFuzzDigest(options.seed).c_str(), stdout);
    } else {
      std::fputs(EmitTransferSizes(options.seed).c_str(), stdout);
    }
    return 0;
  }
  if (options.data_dir.empty()) return Usage("--data-dir is required");
  if (benchmark_json.empty()) return Usage("--benchmark-json is required");
  const hivesim::Result<Catalogue> catalogue = LoadCatalogue(benchmark_json);
  if (!catalogue.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 catalogue.status().ToString().c_str());
    return 2;
  }

  Report report = RunWorkload(options);
  std::vector<std::pair<const MetricSpec*, double>> metrics;
  std::vector<std::string> unmeasured;
  const std::vector<std::string> problems = AssembleMetrics(
      options.trace ? catalogue->per_layer : catalogue->end_to_end,
      options.workload, options.trace ? report.per_layer : report.end_to_end,
      &metrics, &unmeasured);
  report.problems.insert(report.problems.end(), problems.begin(),
                         problems.end());

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  if (!unmeasured.empty()) {
    std::string names;
    for (const std::string& name : unmeasured) names += " " + name;
    std::printf("reported as 0, not measured on %s:%s\n",
                WorkloadName(options.workload), names.c_str());
  }
  if (!trace_out.empty() && options.trace) {
    std::ofstream out(trace_out, std::ios::binary);
    out << SpansToJson(report.spans) << "\n";
    if (!out) report.problems.push_back("cannot write " + trace_out);
  }
  for (const std::string& problem : report.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  const bool correct = report.problems.empty() && report.failed == 0;
  std::printf("%s\n", ResultJson(correct, report.attempted, report.failed,
                                 metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

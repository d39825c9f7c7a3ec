#include "bench_util.h"

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>

#include "common/json.h"
#include "common/strings.h"
#include "telemetry/telemetry.h"

namespace hivesim::bench {

void PrintHeading(const std::string& text) {
  std::cout << "\n=== " << text << " ===\n";
}

TelemetryScope::TelemetryScope(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--trace-out=")) {
      trace_out_ = arg.substr(std::string("--trace-out=").size());
    } else if (StartsWith(arg, "--metrics-out=")) {
      metrics_out_ = arg.substr(std::string("--metrics-out=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (kept < *argc) {
    *argc = kept;
    argv[kept] = nullptr;  // argv stays null-terminated for Initialize.
  }
  if (!trace_out_.empty() || !metrics_out_.empty()) {
    telemetry::Telemetry::Enable();
  }
}

TelemetryScope::~TelemetryScope() {
  if (!trace_out_.empty() &&
      !telemetry::Telemetry::trace().WriteChromeJson(trace_out_)) {
    std::cerr << "cannot write trace to " << trace_out_ << "\n";
  }
  if (!metrics_out_.empty() &&
      !telemetry::Telemetry::metrics().WriteJson(metrics_out_)) {
    std::cerr << "cannot write metrics to " << metrics_out_ << "\n";
  }
}

namespace {

/// Console output plus a per-bench minimum of ns/iteration and the user
/// counters of that fastest repetition. The minimum (not the mean) across
/// repetitions is the standard choice for gating: it is the least noisy
/// estimator of the true cost on a shared machine.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (run.iterations <= 0) continue;
      const double ns = run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e9;
      const std::string name = run.benchmark_name();
      auto [it, inserted] = ns_per_iter_.emplace(name, ns);
      if (!inserted && ns >= it->second) continue;
      it->second = ns;
      std::map<std::string, double>& counters = counters_[name];
      counters.clear();
      for (const auto& [counter, value] : run.counters) {
        counters[counter] = value.value;
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  const std::map<std::string, double>& ns_per_iter() const {
    return ns_per_iter_;
  }
  /// Bench name -> counter name -> value (empty for counter-less benches).
  const std::map<std::string, std::map<std::string, double>>& counters()
      const {
    return counters_;
  }

 private:
  std::map<std::string, double> ns_per_iter_;
  std::map<std::string, std::map<std::string, double>> counters_;
};

/// Peak resident set size of this process in bytes (0 if unavailable).
/// Linux reports ru_maxrss in kilobytes. Deliberately sampled after the
/// benchmarks ran: the high-water mark then covers the largest world the
/// binary built, which is the memory ceiling the ROADMAP tracks.
uint64_t CurrentMaxRssBytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

PerfJsonScope::PerfJsonScope(int* argc, char** argv, std::string area)
    : area_(std::move(area)) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--bench-json=")) {
      json_out_ = arg.substr(std::string("--bench-json=").size());
    } else if (StartsWith(arg, "--bench-area=")) {
      area_ = arg.substr(std::string("--bench-area=").size());
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (kept < *argc) {
    *argc = kept;
    argv[kept] = nullptr;  // argv stays null-terminated for Initialize.
  }
}

void PerfJsonScope::AddCheck(const std::string& key, double value) {
  checks_[key] = value;
}

int PerfJsonScope::RunAndReport(int* argc, char** argv) {
  benchmark::Initialize(argc, argv);
  if (json_out_.empty()) {
    benchmark::RunSpecifiedBenchmarks();
    return 0;
  }

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  JsonWriter json;
  json.BeginObject();
  json.Key("area").String(area_);
  json.Key("benches").BeginObject();
  for (const auto& [name, ns] : reporter.ns_per_iter()) {
    json.Key(name).BeginObject();
    const auto counters = reporter.counters().find(name);
    if (counters != reporter.counters().end() && !counters->second.empty()) {
      json.Key("counters").BeginObject();
      for (const auto& [counter, value] : counters->second) {
        json.Key(counter).Number(value);
      }
      json.EndObject();
    }
    json.Key("ns_per_iter").Number(ns).EndObject();
  }
  json.EndObject();
  json.Key("checks").BeginObject();
  for (const auto& [key, value] : checks_) {
    json.Key(key).Number(value);
  }
  json.EndObject();
  json.Key("max_rss_bytes").Number(static_cast<double>(CurrentMaxRssBytes()));
  json.Key("schema").String("hivesim-bench/1");
  json.EndObject();

  std::ofstream out(json_out_, std::ios::binary | std::ios::trunc);
  out << json.ToString() << "\n";
  out.flush();
  if (!out) {
    std::cerr << "cannot write bench json to " << json_out_ << "\n";
    return 1;
  }
  std::printf("BENCH_JSON written: %s (%zu benches, %zu checks)\n",
              json_out_.c_str(), reporter.ns_per_iter().size(),
              checks_.size());
  return 0;
}

}  // namespace hivesim::bench

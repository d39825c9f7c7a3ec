// Quickstart: train ConvNextLarge on eight spot T4 VMs across two
// continents, then print throughput, the calc/comm split, granularity,
// and the full cost breakdown.
//
//   $ ./build/examples/quickstart

#include <iostream>

#include "common/status.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "core/cluster.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  if (argc > 1) {
    std::cerr << Status::InvalidArgument(StrCat(
                     "quickstart takes no arguments, got '", argv[1], "'"))
                     .ToString()
              << "\n";
    return 1;
  }

  // 1. Describe the fleet: 4 spot T4s in GC us-central1 + 4 in GC
  //    europe-west1 (the paper's B-8 transatlantic setup).
  core::ClusterSpec fleet;
  fleet.groups = {core::GcT4s(4, net::kGcUs), core::GcT4s(4, net::kGcEu)};

  // 2. Describe the workload: ConvNextLarge, target batch size 32K,
  //    simulate two hours of training.
  core::ExperimentConfig config;
  config.model = models::ModelId::kConvNextLarge;
  config.target_batch_size = 32768;
  config.duration_sec = 2 * kHour;

  // 3. Run.
  auto result = core::RunHivemindExperiment(fleet, config);
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status().ToString() << "\n";
    return 1;
  }

  // 4. Report.
  const auto& train = result->train;
  std::cout << "Trained " << models::GetModelSpec(config.model).full_name
            << " on " << fleet.TotalGpus() << " spot T4s (US+EU) for "
            << FormatDuration(train.duration_sec) << "\n\n";
  TableWriter table({"Metric", "Value"});
  table.AddRow({"Throughput", StrFormat("%.1f samples/s",
                                        train.throughput_sps)});
  table.AddRow({"Hivemind epochs", StrFormat("%d", train.epochs)});
  table.AddRow({"Avg calculation / epoch",
                StrFormat("%.1f s", train.avg_calc_sec)});
  table.AddRow({"Avg communication / epoch",
                StrFormat("%.1f s", train.avg_comm_sec)});
  table.AddRow({"Granularity", StrFormat("%.2f", train.granularity)});
  table.AddRow({"Fleet cost", StrFormat("%.2f $/h",
                                        result->fleet_cost_per_hour)});
  table.AddRow({"  instances", FormatDollars(result->fleet_cost.instance)});
  table.AddRow({"  egress (internal)",
                FormatDollars(result->fleet_cost.internal_egress)});
  table.AddRow({"  egress (external)",
                FormatDollars(result->fleet_cost.external_egress)});
  table.AddRow({"  data loading (B2)",
                FormatDollars(result->fleet_cost.data_loading)});
  table.AddRow({"Cost per 1M samples",
                StrFormat("$%.2f", result->cost_per_million)});
  table.Print(std::cout);

  std::cout << "\nThe paper's rule: a granularity of "
            << StrFormat("%.1f", train.granularity)
            << " means doubling the fleet buys at most a "
            << StrFormat("%.2fx", (train.granularity + 1) /
                                      (train.granularity / 2 + 1))
            << " speedup.\n";
  return 0;
}

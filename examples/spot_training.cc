// Spot training under fire: eight spot T4s train RoBERTa-XLM for a
// simulated day on a hostile spot market. The scenario pack's
// spot_market section rents the fleet as auto-restarting spot VMs: an
// interrupted VM drops its peer, and its replacement re-joins after its
// startup delay and two epochs of state sync. The training monitor
// scrapes progress once a second, exactly like the paper's monitor
// scraping the DHT.
//
//   $ ./build/examples/spot_training [monthly_interruption_rate=0.9]

#include <iostream>

#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"
#include "core/experiment.h"
#include "hivemind/monitor.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  double monthly_rate = 0.9;
  if (argc > 1) {
    auto parsed = ParseDoubleArg("monthly_interruption_rate", argv[1]);
    // The same domain a pack file's spot_market section must respect.
    if (parsed.ok() && !scenario::IsMonthlyRate(*parsed)) {
      parsed = Status::InvalidArgument(
          StrCat("monthly_interruption_rate must be within [0, 1), got ",
                 argv[1]));
    }
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    monthly_rate = *parsed;
  }
  scenario::ScenarioPack pack;
  pack.name = "spot-training";
  pack.spot_market = scenario::SpotMarketSpec{monthly_rate};

  core::ExperimentConfig config;
  config.model = models::ModelId::kRobertaXlm;
  config.duration_sec = 24 * kHour;
  config.seed = 42;

  std::cout << "Provisioning 8 spot T4 VMs in GC us-central1 "
            << "(monthly interruption rate "
            << StrFormat("%.0f%%",
                         pack.spot_market->monthly_interruption_rate * 100)
            << ")...\n";
  auto world =
      core::BuildExperimentWorld(core::ClusterSpec{{core::GcT4s(8)}}, config,
                                 &pack);
  if (!world.ok()) {
    std::cerr << world.status().ToString() << "\n";
    return 1;
  }
  hivemind::TrainingMonitor monitor(&(*world)->sim, (*world)->trainer.get(),
                                    1.0);
  monitor.Start();
  auto result = core::CompleteExperiment(**world, config);
  monitor.Stop();
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }

  const hivemind::RunStats& stats = result->train;
  TableWriter table({"Metric", "Value"});
  table.AddRow({"Simulated duration", FormatDuration(stats.duration_sec)});
  table.AddRow(
      {"Spot interruptions", StrFormat("%d", result->spot_interruptions)});
  table.AddRow({"Hivemind epochs", StrFormat("%d", stats.epochs)});
  table.AddRow({"Throughput", StrFormat("%.1f SPS", stats.throughput_sps)});
  table.AddRow({"Granularity", StrFormat("%.2f", stats.granularity)});
  table.AddRow({"Monitor samples", StrFormat("%zu",
                                             monitor.snapshots().size())});
  table.Print(std::cout);

  // A little peer-count timeline from the monitor, hour by hour.
  std::cout << "\nActive peers per hour (from the monitor):\n  ";
  for (size_t i = 0; i < monitor.snapshots().size(); i += 3600) {
    std::cout << monitor.snapshots()[i].active_peers << " ";
  }
  std::cout << "\nTraining survived every interruption without a restart "
               "- the decentralized swarm keeps going.\n";
  return 0;
}

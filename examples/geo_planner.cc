// Geo planner: the paper's Section 8 guidance as a tool. Give it a model
// and a minimum throughput, and it evaluates spot fleets across GC, AWS,
// Azure and LambdaLabs plus the centralized competitors (DGX-2, 4xT4
// DDP), ranking everything by cost per million samples.
//
//   $ ./build/examples/geo_planner CONV 250
//   $ ./build/examples/geo_planner RXLM 500
//   $ ./build/examples/geo_planner WhSmall 20

#include <iostream>

#include "common/flags.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "core/advisor.h"
#include "core/granularity.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  core::AdvisorRequest request;
  request.model = models::ModelId::kConvNextLarge;
  if (argc > 1) {
    auto parsed = models::ParseModelId(argv[1]);
    if (!parsed.ok()) {
      std::cerr << "unknown model '" << argv[1]
                << "'; try CONV, RXLM, RN50, WhSmall, ...\n";
      return 1;
    }
    request.model = *parsed;
  }
  if (argc > 2) {
    auto parsed = ParseDoubleArg("min_throughput_sps", argv[2]);
    if (!parsed.ok()) {
      std::cerr << parsed.status().ToString() << "\n";
      return 1;
    }
    request.min_throughput_sps = *parsed;
  }
  if (models::GetModelSpec(request.model).domain == models::Domain::kASR) {
    request.target_batch_size = 1024;  // Section 11's workable TBS.
  }

  std::cout << "Evaluating training options for "
            << models::GetModelSpec(request.model).full_name << " (TBS "
            << request.target_batch_size << ", floor "
            << request.min_throughput_sps << " SPS)...\n";

  auto options = core::RankTrainingOptions(request);
  if (!options.ok()) {
    std::cerr << "advisor failed: " << options.status().ToString() << "\n";
    return 1;
  }

  TableWriter table({"#", "Setup", "SPS", "Granularity", "Scaling", "$/h",
                     "$/1M", "Meets target"});
  int rank = 1;
  for (const auto& option : *options) {
    if (option.throughput_sps <= 0) continue;  // Infeasible (e.g. OOM).
    table.AddRow({StrFormat("%d", rank++), option.description,
                  StrFormat("%.1f", option.throughput_sps),
                  option.granularity > 0
                      ? StrFormat("%.2f", option.granularity)
                      : std::string("-"),
                  option.granularity > 0
                      ? std::string(core::SuitabilityName(
                            core::ClassifyGranularity(option.granularity)))
                      : std::string("-"),
                  StrFormat("%.2f", option.cost_per_hour),
                  StrFormat("%.2f", option.cost_per_million),
                  option.meets_target ? "yes" : "no"});
  }
  table.Print(std::cout);

  for (const auto& option : *options) {
    if (option.meets_target) {
      std::cout << "\nRecommendation: " << option.description << " at $"
                << StrFormat("%.2f", option.cost_per_million)
                << " per 1M samples.\n";
      break;
    }
  }
  return 0;
}

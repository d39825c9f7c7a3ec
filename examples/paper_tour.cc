// Paper tour: reruns the core of the paper's evaluation (Sections 4-5)
// in one sitting — the A/B/C geo series and the D multi-cloud series for
// both headline models — printing report tables and writing CSVs for
// external plotting.
//
//   $ ./build/examples/paper_tour [output_dir=/tmp]

#include <cctype>
#include <iostream>
#include <string>

#include "common/status.h"
#include "common/strings.h"
#include "core/catalog.h"
#include "core/experiment.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace hivesim;

  const std::string out_dir = argc > 1 ? argv[1] : "/tmp";

  const struct {
    models::ModelId model;
    const char* tag;
  } workloads[] = {
      {models::ModelId::kConvNextLarge, "cv"},
      {models::ModelId::kRobertaXlm, "nlp"},
  };
  const struct {
    const char* title;
    std::vector<core::NamedExperiment> series;
  } sections[] = {
      {"(A) Intra-zone", core::ASeries()},
      {"(B) Transatlantic", core::BSeries()},
      {"(C) Intercontinental", core::CSeries()},
      {"(D) Multi-cloud", core::DSeries()},
  };

  bool any_failed = false;
  for (const auto& workload : workloads) {
    std::cout << "\n===== "
              << models::GetModelSpec(workload.model).full_name
              << " =====\n";
    for (const auto& section : sections) {
      core::ReportBuilder report(section.title);
      for (const auto& experiment : section.series) {
        core::ExperimentConfig config;
        config.model = workload.model;
        auto result = core::RunHivemindExperiment(experiment.cluster,
                                                  config);
        if (!result.ok()) {
          std::cerr << experiment.name << ": "
                    << result.status().ToString() << "\n";
          any_failed = true;
          continue;
        }
        report.Add(experiment.name, std::move(*result));
      }
      report.PrintTable(std::cout);

      std::string slug(section.title);
      for (char& c : slug) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      const std::string path =
          StrCat(out_dir, "/hivesim_", workload.tag, "_", slug, ".csv");
      if (Status s = report.WriteCsv(path); !s.ok()) {
        std::cerr << s.ToString() << "\n";
        return 1;
      }
      std::cout << "  -> " << path << "\n";
    }
  }
  std::cout << "\nCompare against the paper with EXPERIMENTS.md, or dig "
               "into single figures with `hivesim reproduce "
               "--figure=fig7,fig8,fig9,fig10`.\n";
  // The tables hold the experiments that ran; each failure printed its
  // status above and fails the tour.
  return any_failed ? 1 : 0;
}

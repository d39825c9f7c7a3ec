#include "reproduce/reproduce.h"

#include <filesystem>

#include "common/strings.h"

namespace hivesim::reproduce {

std::string Anchor::id() const {
  return StrCat(figure, "/", experiment, "/", metric);
}

void ComparisonTable::Add(std::string experiment, std::string metric,
                          double paper, double simulated, AnchorTag tag) {
  rows_.push_back(
      {std::move(experiment), std::move(metric), paper, simulated, tag});
}

void ComparisonTable::AddSimulatedOnly(std::string experiment,
                                       std::string metric, double simulated) {
  rows_.push_back({std::move(experiment), std::move(metric), std::nullopt,
                   simulated, AnchorTag::kOutOfSample});
}

Page::Page(std::string figure, const std::vector<core::SweepRunSummary>* runs,
           std::string csv_dir)
    : figure_(std::move(figure)), runs_(runs), csv_dir_(std::move(csv_dir)) {}

const core::ExperimentResult& Page::Cell(size_t spec, std::string_view cluster,
                                         models::ModelId model, int tbs,
                                         uint64_t seed,
                                         std::string_view chaos) {
  static const core::ExperimentResult kNone;
  if (spec < runs_->size()) {
    const core::SweepRunSummary& run = (*runs_)[spec];
    for (size_t i = 0; i < run.cells.size(); ++i) {
      const core::SweepCell& cell = run.cells[i];
      if (cell.cluster.name == cluster && cell.config.model == model &&
          cell.config.target_batch_size == tbs && cell.config.seed == seed &&
          cell.chaos.label == chaos) {
        return run.outcomes[i].result;
      }
    }
  }
  Fail(Status::NotFound(StrCat("spec ", spec, " declares no cell ", cluster,
                               "/", models::ModelName(model), "/tbs", tbs,
                               "/seed", seed, "/chaos ", chaos)));
  return kNone;
}

void Page::Heading(std::string_view text) {
  out_ << "\n=== " << text << " ===\n";
}

void Page::Print(const ComparisonTable& table) {
  Heading(table.title_);
  TableWriter text({"Experiment", "Metric", "Paper", "Simulated", "Delta"});
  CsvWriter csv({"experiment", "metric", "paper", "simulated"});
  for (const ComparisonTable::Row& row : table.rows_) {
    std::string paper = "-";
    std::string delta = "-";
    if (row.paper.has_value()) {
      paper = StrFormat("%.3g", *row.paper);
      if (*row.paper != 0) {
        delta = StrFormat("%+.1f%%",
                          (row.simulated - *row.paper) / *row.paper * 100.0);
      }
      anchors_.push_back({figure_, row.experiment, row.metric, *row.paper,
                          row.simulated, row.tag});
    }
    text.AddRow({row.experiment, row.metric, paper,
                 StrFormat("%.3g", row.simulated), delta});
    csv.AddRow(std::vector<std::string>{
        row.experiment, row.metric,
        row.paper.has_value() ? StrFormat("%.6g", *row.paper) : "",
        StrFormat("%.6g", row.simulated)});
  }
  text.Print(out_);
  out_ << "\n";
  if (csv_dir_.empty()) return;
  const std::string path =
      StrCat(csv_dir_, "/", Slugify(table.title_), ".csv");
  if (!csv.WriteFile(path)) {
    Fail(Status::IOError(StrCat("cannot write ", path)));
  }
}

void Page::Fail(const Status& status) {
  if (status_.ok()) status_ = status;
}

Status RenderFigure(const Figure& figure,
                    const std::vector<core::SweepRunSummary>& runs,
                    const std::string& csv_dir, std::ostream& out,
                    std::vector<Anchor>* anchors) {
  for (const core::SweepRunSummary& run : runs) {
    for (size_t i = 0; i < run.cells.size(); ++i) {
      if (!run.outcomes[i].ok) {
        return Status::Internal(StrCat(figure.id, ": cell ",
                                       run.cells[i].name, " failed: ",
                                       run.outcomes[i].error));
      }
    }
  }
  Page page(figure.id, &runs, csv_dir);
  figure.render(page);
  if (!page.status().ok()) {
    return Status::Internal(
        StrCat(figure.id, ": ", page.status().ToString()));
  }
  out << page.text();
  anchors->insert(anchors->end(), page.anchors().begin(),
                  page.anchors().end());
  return Status::OK();
}

Result<std::vector<Anchor>> Reproduce(const Options& options,
                                      std::ostream& out) {
  std::vector<const Figure*> selected;
  for (const std::string& id : options.figures) {
    const Figure* found = nullptr;
    for (const Figure& figure : Figures()) {
      if (figure.id == id) found = &figure;
    }
    if (found == nullptr) {
      std::vector<std::string> ids;
      for (const Figure& figure : Figures()) {
        ids.push_back(StrCat(figure.id, " (", figure.title, ")"));
      }
      return Status::InvalidArgument(StrCat(
          "unknown figure '", id, "'; valid ids: ", StrJoin(ids, ", ")));
    }
    selected.push_back(found);
  }
  if (options.figures.empty()) {
    for (const Figure& figure : Figures()) selected.push_back(&figure);
  }
  if (!options.csv_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.csv_dir, ec);
    if (ec) {
      return Status::IOError(
          StrCat("cannot create ", options.csv_dir, ": ", ec.message()));
    }
  }

  core::SweepOptions sweep;
  sweep.threads = options.threads;
  std::vector<Anchor> anchors;
  for (const Figure* figure : selected) {
    std::vector<core::SweepRunSummary> runs;
    for (const core::SweepSpec& spec : figure->specs) {
      auto run = core::RunSweep(spec, sweep);
      if (!run.ok()) {
        return Status::Internal(
            StrCat(figure->id, ": ", run.status().ToString()));
      }
      runs.push_back(std::move(*run));
    }
    HIVESIM_RETURN_IF_ERROR(
        RenderFigure(*figure, runs, options.csv_dir, out, &anchors));
  }
  return anchors;
}

}  // namespace hivesim::reproduce

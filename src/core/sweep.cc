#include "core/sweep.h"

#include <algorithm>
#include <set>

#include "common/json.h"
#include "common/strings.h"
#include "core/report.h"

namespace hivesim::core {

namespace {

template <typename T>
bool HasDuplicates(const std::vector<T>& values) {
  return std::set<T>(values.begin(), values.end()).size() != values.size();
}

}  // namespace

Status SweepSpec::Validate() const {
  if (clusters.empty()) {
    return Status::InvalidArgument("sweep spec has no cluster layouts");
  }
  if (models.empty() || target_batch_sizes.empty() || seeds.empty() ||
      chaos.empty()) {
    return Status::InvalidArgument(
        "every sweep axis needs at least one value");
  }
  for (const int tbs : target_batch_sizes) {
    if (tbs <= 0) {
      return Status::InvalidArgument(
          StrCat("target batch size must be positive, got ", tbs));
    }
  }
  if (duration_sec <= 0) {
    return Status::InvalidArgument("sweep duration must be positive");
  }
  if (streams_per_transfer < 1) {
    return Status::InvalidArgument("streams_per_transfer must be >= 1");
  }
  std::vector<std::string> cluster_names;
  cluster_names.reserve(clusters.size());
  for (const NamedExperiment& cluster : clusters) {
    if (cluster.cluster.groups.empty()) {
      return Status::InvalidArgument(
          StrCat("cluster '", cluster.name, "' has no VM groups"));
    }
    cluster_names.push_back(cluster.name);
  }
  // Duplicate axis values would expand into colliding cell names (and
  // silently double work); a typo'd repeated value is always a bug.
  if (HasDuplicates(cluster_names)) {
    return Status::InvalidArgument("duplicate cluster name in sweep spec");
  }
  if (HasDuplicates(models)) {
    return Status::InvalidArgument("duplicate model in sweep spec");
  }
  if (HasDuplicates(target_batch_sizes)) {
    return Status::InvalidArgument(
        "duplicate target batch size in sweep spec");
  }
  if (HasDuplicates(seeds)) {
    return Status::InvalidArgument("duplicate seed in sweep spec");
  }
  // Chaos labels name cells and reports: an empty or repeated label
  // would expand into colliding cell names, and a label that reads as
  // "none" or a builtin pack must mean exactly that pack.
  std::vector<std::string> labels;
  labels.reserve(chaos.size());
  for (const ChaosAxisEntry& entry : chaos) {
    if (entry.label.empty()) {
      return Status::InvalidArgument("chaos axis entry needs a label");
    }
    if ((entry.label == "none") == entry.pack.has_value()) {
      return Status::InvalidArgument(
          StrCat("chaos label '", entry.label, "' ",
                 entry.pack ? "names the no-chaos entry but has a pack"
                            : "has no scenario pack"));
    }
    if (entry.pack) {
      auto builtin = scenario::BuiltinScenario(entry.label);
      if (builtin.ok() && scenario::ScenarioToJson(*builtin) !=
                              scenario::ScenarioToJson(*entry.pack)) {
        return Status::InvalidArgument(
            StrCat("chaos label '", entry.label,
                   "' names a builtin pack but the pack differs from it"));
      }
    }
    labels.push_back(entry.label);
  }
  if (HasDuplicates(labels)) {
    return Status::InvalidArgument("duplicate chaos label in sweep spec");
  }
  return Status::OK();
}

size_t SweepSpec::NumCells() const {
  return clusters.size() * models.size() * target_batch_sizes.size() *
         seeds.size() * chaos.size();
}

std::vector<SweepCell> ExpandSweep(const SweepSpec& spec) {
  std::vector<SweepCell> cells;
  cells.reserve(spec.NumCells());
  for (const NamedExperiment& cluster : spec.clusters) {
    for (const models::ModelId model : spec.models) {
      for (const int tbs : spec.target_batch_sizes) {
        for (const uint64_t seed : spec.seeds) {
          for (const ChaosAxisEntry& chaos : spec.chaos) {
            SweepCell cell;
            cell.index = cells.size();
            cell.cluster = cluster;
            cell.chaos = chaos;
            cell.name = StrCat(cluster.name, "/", models::ModelName(model),
                               "/tbs", tbs, "/seed", seed);
            if (chaos.pack) cell.name = StrCat(cell.name, "/", chaos.label);
            cell.slug = Slugify(cell.name);

            cell.config.model = model;
            cell.config.target_batch_size = tbs;
            cell.config.duration_sec = spec.duration_sec;
            cell.config.delayed_parameter_updates =
                spec.delayed_parameter_updates;
            cell.config.compression = spec.compression;
            cell.config.strategy = spec.strategy;
            cell.config.streams_per_transfer = spec.streams_per_transfer;
            cell.config.seed = seed;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

// --- SweepAggregator ---

SweepAggregator::SweepAggregator(SweepSpec spec, std::vector<SweepCell> cells)
    : spec_(std::move(spec)),
      cells_(std::move(cells)),
      outcomes_(cells_.size()),
      present_(cells_.size(), false) {}

void SweepAggregator::Add(size_t index, SweepCellOutcome outcome) {
  MutexLock lock(mu_);
  if (index >= cells_.size() || present_[index]) return;
  outcomes_[index] = std::move(outcome);
  present_[index] = true;
  ++added_;
}

// hivesim-lint: allow(U1) reason=test observer: sweep_test checks that duplicate and out-of-range adds are dropped through it
size_t SweepAggregator::added() const {
  MutexLock lock(mu_);
  return added_;
}

bool SweepAggregator::complete() const {
  MutexLock lock(mu_);
  return added_ == cells_.size();
}

int SweepAggregator::failures() const {
  MutexLock lock(mu_);
  return FailuresLocked();
}

int SweepAggregator::FailuresLocked() const {
  int failures = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (present_[i] && !outcomes_[i].ok) ++failures;
  }
  return failures;
}

std::string SweepAggregator::ReportJson() const {
  MutexLock lock(mu_);
  ReportBuilder report(spec_.title);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (present_[i] && outcomes_[i].ok) {
      report.Add(cells_[i].name, outcomes_[i].result);
    }
  }
  return report.ToJson();
}

std::string SweepAggregator::ReportCsv() const {
  MutexLock lock(mu_);
  ReportBuilder report(spec_.title);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (present_[i] && outcomes_[i].ok) {
      report.Add(cells_[i].name, outcomes_[i].result);
    }
  }
  return report.ToCsv();
}

std::string SweepAggregator::ManifestJson() const {
  MutexLock lock(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("title").String(spec_.title);
  json.Key("axes").BeginObject();
  json.Key("clusters").BeginArray();
  for (const NamedExperiment& cluster : spec_.clusters) {
    json.String(cluster.name);
  }
  json.EndArray();
  json.Key("models").BeginArray();
  for (const models::ModelId model : spec_.models) {
    json.String(std::string(models::ModelName(model)));
  }
  json.EndArray();
  json.Key("target_batch_sizes").BeginArray();
  for (const int tbs : spec_.target_batch_sizes) json.Int(tbs);
  json.EndArray();
  json.Key("seeds").BeginArray();
  for (const uint64_t seed : spec_.seeds) {
    json.Int(static_cast<int64_t>(seed));
  }
  json.EndArray();
  json.Key("chaos").BeginArray();
  for (const ChaosAxisEntry& entry : spec_.chaos) json.String(entry.label);
  json.EndArray();
  json.Key("duration_sec").Number(spec_.duration_sec);
  json.EndObject();
  json.Key("num_cells").Int(static_cast<int64_t>(cells_.size()));
  json.Key("failures").Int(FailuresLocked());
  json.Key("cells").BeginArray();
  for (size_t i = 0; i < cells_.size(); ++i) {
    const SweepCell& cell = cells_[i];
    const SweepCellOutcome& outcome = outcomes_[i];
    json.BeginObject();
    json.Key("index").Int(static_cast<int64_t>(cell.index));
    json.Key("name").String(cell.name);
    json.Key("slug").String(cell.slug);
    json.Key("cluster").String(cell.cluster.name);
    json.Key("model").String(std::string(models::ModelName(cell.config.model)));
    json.Key("tbs").Int(cell.config.target_batch_size);
    json.Key("seed").Int(static_cast<int64_t>(cell.config.seed));
    json.Key("chaos").String(cell.chaos.label);
    json.Key("ok").Bool(present_[i] && outcome.ok);
    if (present_[i] && !outcome.ok) json.Key("error").String(outcome.error);
    if (cell.chaos.pack && present_[i] && outcome.ok) {
      json.Key("chaos_fingerprint")
          .String(StrFormat("%016llx", static_cast<unsigned long long>(
                                           outcome.result.chaos_fingerprint)));
    }
    if (present_[i] && outcome.ok) {
      json.Key("sps").Number(outcome.result.train.throughput_sps);
      json.Key("epochs").Int(outcome.result.train.epochs);
      json.Key("usd_per_million").Number(outcome.result.cost_per_million);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.ToString();
}

std::string SweepAggregator::MergedMetricsJson() const {
  MutexLock lock(mu_);
  telemetry::MetricsRegistry merged;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (present_[i]) merged.Merge(outcomes_[i].metrics);
  }
  return merged.ToJson();
}

}  // namespace hivesim::core

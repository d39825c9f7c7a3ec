#include "core/report.h"

#include <fstream>

#include "common/json.h"
#include "common/strings.h"

namespace hivesim::core {

void ReportBuilder::Add(std::string name, ExperimentResult result) {
  rows_.push_back(ReportRow{std::move(name), std::move(result)});
}

void ReportBuilder::PrintTable(std::ostream& os) const {
  os << "--- " << title_ << " ---\n";
  TableWriter table({"Experiment", "SPS", "Calc (s)", "Comm (s)",
                     "Granularity", "Epochs", "$/h", "$/1M"});
  for (const ReportRow& row : rows_) {
    const auto& t = row.result.train;
    table.AddRow({row.name, StrFormat("%.1f", t.throughput_sps),
                  StrFormat("%.1f", t.avg_calc_sec),
                  StrFormat("%.1f", t.avg_comm_sec),
                  StrFormat("%.2f", t.granularity),
                  StrFormat("%d", t.epochs),
                  StrFormat("%.3f", row.result.fleet_cost_per_hour),
                  StrFormat("%.2f", row.result.cost_per_million)});
  }
  table.Print(os);
}

std::string ReportBuilder::ToCsv() const {
  CsvWriter csv({"experiment", "sps", "calc_sec", "comm_sec", "granularity",
                 "epochs", "usd_per_hour", "usd_per_million",
                 "usd_per_million_excl_data", "instance_usd",
                 "internal_egress_usd", "external_egress_usd",
                 "data_loading_usd"});
  for (const ReportRow& row : rows_) {
    const auto& t = row.result.train;
    const auto& c = row.result.fleet_cost;
    csv.AddRow(std::vector<std::string>{
        row.name, StrFormat("%.6g", t.throughput_sps),
        StrFormat("%.6g", t.avg_calc_sec), StrFormat("%.6g", t.avg_comm_sec),
        StrFormat("%.6g", t.granularity), StrFormat("%d", t.epochs),
        StrFormat("%.6g", row.result.fleet_cost_per_hour),
        StrFormat("%.6g", row.result.cost_per_million),
        StrFormat("%.6g", row.result.cost_per_million_excl_data),
        StrFormat("%.6g", c.instance), StrFormat("%.6g", c.internal_egress),
        StrFormat("%.6g", c.external_egress),
        StrFormat("%.6g", c.data_loading)});
  }
  return csv.ToString();
}

Status ReportBuilder::WriteCsv(const std::string& path) const {
  std::ofstream f(path);
  if (f) f << ToCsv();
  if (!f) return Status::IOError(StrCat("cannot write ", path));
  return Status::OK();
}

std::string ReportBuilder::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("title").String(title_);
  json.Key("experiments").BeginArray();
  for (const ReportRow& row : rows_) {
    const auto& t = row.result.train;
    const auto& c = row.result.fleet_cost;
    json.BeginObject();
    json.Key("experiment").String(row.name);
    json.Key("sps").Number(t.throughput_sps);
    json.Key("calc_sec").Number(t.avg_calc_sec);
    json.Key("comm_sec").Number(t.avg_comm_sec);
    json.Key("granularity").Number(t.granularity);
    json.Key("epochs").Int(t.epochs);
    json.Key("usd_per_hour").Number(row.result.fleet_cost_per_hour);
    json.Key("usd_per_million").Number(row.result.cost_per_million);
    json.Key("cost").BeginObject();
    json.Key("instance").Number(c.instance);
    json.Key("internal_egress").Number(c.internal_egress);
    json.Key("external_egress").Number(c.external_egress);
    json.Key("data_loading").Number(c.data_loading);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.ToString();
}

}  // namespace hivesim::core

#include "telemetry/analysis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "telemetry/telemetry.h"

namespace hivesim::telemetry {

namespace {

// Fixed bucket ladder (1-2-5 decades, seconds) for the straggler
// histograms; percentiles interpolate inside these buckets.
const std::vector<double>& StragglerBounds() {
  static const std::vector<double> bounds = {
      0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1,  0.2,  0.5, 1,
      2,     5,     10,    20,   50,   100,  200,  500,  1000};
  return bounds;
}

// Per-phase accumulation in trace microseconds; converted to seconds
// exactly once at the end.
struct PhaseMicros {
  double calc = 0;
  double matchmake_wait = 0;
  double matchmake = 0;
  double flow = 0;
  double overhead = 0;

  void Add(Phase phase, double dur_us) {
    switch (phase) {
      case Phase::kCalc: calc += dur_us; break;
      case Phase::kMatchmakeWait: matchmake_wait += dur_us; break;
      case Phase::kMatchmake: matchmake += dur_us; break;
      case Phase::kFlow: flow += dur_us; break;
      case Phase::kOverhead: overhead += dur_us; break;
    }
  }

  PhaseTotals ToSeconds() const {
    PhaseTotals totals;
    totals.calc_sec = calc / 1e6;
    totals.matchmake_wait_sec = matchmake_wait / 1e6;
    totals.matchmake_sec = matchmake / 1e6;
    totals.flow_sec = flow / 1e6;
    totals.overhead_sec = overhead / 1e6;
    return totals;
  }
};

StragglerPercentiles Percentiles(const MetricsRegistry& metrics,
                                 std::string_view name) {
  StragglerPercentiles p;
  p.count = metrics.HistogramCount(name);
  if (p.count == 0) return p;
  p.p50 = metrics.HistogramP50(name).value_or(0);
  p.p95 = metrics.HistogramP95(name).value_or(0);
  p.p99 = metrics.HistogramP99(name).value_or(0);
  return p;
}

void WritePercentiles(JsonWriter& json, const StragglerPercentiles& p) {
  json.BeginObject();
  json.Key("count").Int(static_cast<int64_t>(p.count));
  json.Key("p50").Number(p.p50);
  json.Key("p95").Number(p.p95);
  json.Key("p99").Number(p.p99);
  json.EndObject();
}

std::string FormatSeconds(double sec) { return StrFormat("%.3f", sec); }

std::string FormatShare(double numerator, double denominator) {
  if (denominator <= 0) return "-";
  return StrFormat("%.1f%%", 100.0 * numerator / denominator);
}

}  // namespace

Result<AnalysisReport> AnalyzeChromeJson(std::string_view json_text,
                                         const AnalysisOptions& options) {
  TraceDataset dataset;
  HIVESIM_ASSIGN_OR_RETURN(dataset, DatasetFromChromeJson(json_text));
  AnalysisReport report;
  report.options = options;
  HIVESIM_ASSIGN_OR_RETURN(report.model, BuildRoundModel(dataset));

  PhaseMicros total_us;
  std::map<std::string, LinkStat> links;
  std::map<int, PeerStat> peers;
  std::map<int, std::string> peer_zone;
  MetricsRegistry straggler_metrics;
  straggler_metrics.DefineHistogram("round_comm_sec", StragglerBounds());
  straggler_metrics.DefineHistogram("critical_flow_sec", StragglerBounds());

  for (const Round& round : report.model.rounds) {
    PhaseMicros round_us;
    std::map<std::string, double> round_link_us;
    int last_flow = -1;
    for (const Segment& seg : round.critical) {
      round_us.Add(seg.phase, seg.dur_us());
      if (seg.phase == Phase::kFlow) {
        const FlowRef& flow = round.flows[static_cast<size_t>(seg.flow)];
        round_link_us[flow.link] += seg.dur_us();
        links[flow.link].critical_sec += seg.dur_us();  // us for now.
        peers[flow.src].critical_sec += seg.dur_us();
        last_flow = seg.flow;
        straggler_metrics.Observe("critical_flow_sec",
                                  seg.dur_us() / 1e6);
      }
    }
    for (const FlowRef& flow : round.flows) {
      LinkStat& link = links[flow.link];
      link.bytes += flow.bytes;
      ++link.flows;
      if (!flow.src_zone.empty()) {
        peer_zone.emplace(flow.src, flow.src_zone);
      }
      if (!flow.dst_zone.empty()) {
        peer_zone.emplace(flow.dst, flow.dst_zone);
      }
    }

    RoundSummary summary;
    summary.run = round.run;
    summary.epoch = round.epoch;
    summary.start_sec = round.start_us / 1e6;
    summary.end_sec = round.end_us / 1e6;
    summary.phases = round_us.ToSeconds();
    for (const auto& [link, us] : round_link_us) {
      // Map iteration is name-sorted, so the strict > keeps the
      // lexicographically smallest link on ties.
      if (summary.binding_link.empty() ||
          us > round_link_us[summary.binding_link]) {
        summary.binding_link = link;
      }
    }
    if (last_flow >= 0) {
      summary.straggler_peer =
          round.flows[static_cast<size_t>(last_flow)].src;
      ++peers[summary.straggler_peer].straggler_rounds;
    }
    summary.retries = round.retries;
    summary.degraded = round.degraded;
    summary.chaos = round.chaos;
    straggler_metrics.Observe(
        "round_comm_sec",
        (round_us.matchmake_wait + round_us.matchmake + round_us.flow +
         round_us.overhead) /
            1e6);
    report.rounds.push_back(std::move(summary));

    total_us.calc += round_us.calc;
    total_us.matchmake_wait += round_us.matchmake_wait;
    total_us.matchmake += round_us.matchmake;
    total_us.flow += round_us.flow;
    total_us.overhead += round_us.overhead;
  }
  report.totals = total_us.ToSeconds();

  // Per-peer timelines (peer/<n> lanes) for the straggler section.
  for (const TraceEvent& e : dataset.events) {
    int peer = -1;
    if (e.instant ||
        std::sscanf(e.lane.c_str(), "peer/%d", &peer) != 1) {
      continue;
    }
    PeerStat& stat = peers[peer];
    if (e.name == "accumulate") {
      stat.accumulate_sec += e.dur_us;  // us for now.
    } else if (e.name == "average") {
      stat.average_sec += e.dur_us;
    } else if (e.name == "sync") {
      stat.sync_sec += e.dur_us;
    }
  }

  for (auto& [link, stat] : links) {
    stat.link = link;
    stat.critical_sec /= 1e6;
    report.links.push_back(stat);
  }
  std::sort(report.links.begin(), report.links.end(),
            [](const LinkStat& a, const LinkStat& b) {
              if (a.critical_sec != b.critical_sec) {
                return a.critical_sec > b.critical_sec;
              }
              return a.link < b.link;
            });

  for (auto& [peer, stat] : peers) {
    stat.peer = peer;
    const auto zone = peer_zone.find(peer);
    stat.zone = zone != peer_zone.end() ? zone->second : "?";
    stat.critical_sec /= 1e6;
    stat.accumulate_sec /= 1e6;
    stat.average_sec /= 1e6;
    stat.sync_sec /= 1e6;
    report.peers.push_back(stat);
  }

  report.round_comm = Percentiles(straggler_metrics, "round_comm_sec");
  report.critical_flow =
      Percentiles(straggler_metrics, "critical_flow_sec");

  const double critical_sec = report.totals.critical_sec();
  const double factor = options.what_if_factor;
  const double removable = factor > 1 ? 1.0 - 1.0 / factor : 0.0;
  for (const LinkStat& link : report.links) {
    if (static_cast<int>(report.headroom.size()) >= options.top_k) break;
    if (!(link.critical_sec > 0) || !(critical_sec > 0)) break;
    HeadroomEstimate estimate;
    estimate.link = link.link;
    estimate.critical_share = link.critical_sec / critical_sec;
    estimate.speedup_bound =
        1.0 / (1.0 - estimate.critical_share * removable);
    report.headroom.push_back(std::move(estimate));
  }
  return report;
}

Status AttachMetricsJson(AnalysisReport* report, const JsonValue& doc) {
  const JsonValue* counters = doc.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument(
        "not a metrics snapshot: missing counters object");
  }
  const auto counter = [counters](const char* name) {
    const JsonValue* v = counters->Find(name);
    return v != nullptr ? v->NumberOr(0) : 0.0;
  };
  const PhaseTotals& t = report->totals;
  const auto row = [&counter](const char* name, double trace_sec) {
    const double counter_sec = counter(name);
    return ReconciliationRow{name, trace_sec, counter_sec,
                             trace_sec - counter_sec};
  };
  report->reconciliation = {
      row("trainer.calc_sec", t.calc_sec),
      row("trainer.comm_sec", t.comm_sec()),
      row("trainer.matchmake_wait_sec",
          t.matchmake_wait_sec + t.matchmake_sec),
  };
  return Status::OK();
}

std::string AnalysisReport::ToJson() const {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("hivesim-analysis/1");
  json.Key("headroom").BeginArray();
  for (const HeadroomEstimate& h : headroom) {
    json.BeginObject();
    json.Key("critical_share").Number(h.critical_share);
    json.Key("link").String(h.link);
    json.Key("speedup_bound").Number(h.speedup_bound);
    json.Key("what_if_factor").Number(options.what_if_factor);
    json.EndObject();
  }
  json.EndArray();
  json.Key("links").BeginArray();
  for (const LinkStat& link : links) {
    json.BeginObject();
    json.Key("bytes").Number(link.bytes);
    json.Key("critical_sec").Number(link.critical_sec);
    json.Key("flows").Int(static_cast<int64_t>(link.flows));
    json.Key("link").String(link.link);
    json.EndObject();
  }
  json.EndArray();
  json.Key("peers").BeginArray();
  for (const PeerStat& peer : peers) {
    json.BeginObject();
    json.Key("accumulate_sec").Number(peer.accumulate_sec);
    json.Key("average_sec").Number(peer.average_sec);
    json.Key("critical_sec").Number(peer.critical_sec);
    json.Key("peer").Int(peer.peer);
    json.Key("straggler_rounds").Int(
        static_cast<int64_t>(peer.straggler_rounds));
    json.Key("sync_sec").Number(peer.sync_sec);
    json.Key("zone").String(peer.zone);
    json.EndObject();
  }
  json.EndArray();
  if (!reconciliation.empty()) {
    json.Key("reconciliation").BeginArray();
    for (const ReconciliationRow& row : reconciliation) {
      json.BeginObject();
      json.Key("counter_sec").Number(row.counter_sec);
      json.Key("delta_sec").Number(row.delta_sec);
      json.Key("name").String(row.name);
      json.Key("trace_sec").Number(row.trace_sec);
      json.EndObject();
    }
    json.EndArray();
  }
  json.Key("rounds").BeginArray();
  for (const RoundSummary& round : rounds) {
    json.BeginObject();
    json.Key("binding_link").String(round.binding_link);
    json.Key("calc_sec").Number(round.phases.calc_sec);
    json.Key("chaos").BeginArray();
    for (const std::string& name : round.chaos) json.String(name);
    json.EndArray();
    json.Key("degraded").Bool(round.degraded);
    json.Key("end_sec").Number(round.end_sec);
    json.Key("epoch").Int(round.epoch);
    json.Key("flow_sec").Number(round.phases.flow_sec);
    json.Key("matchmake_sec").Number(round.phases.matchmake_sec);
    json.Key("matchmake_wait_sec").Number(round.phases.matchmake_wait_sec);
    json.Key("overhead_sec").Number(round.phases.overhead_sec);
    json.Key("retries").Int(round.retries);
    json.Key("run").Int(round.run);
    json.Key("start_sec").Number(round.start_sec);
    json.Key("straggler_peer").Int(round.straggler_peer);
    json.EndObject();
  }
  json.EndArray();
  json.Key("stragglers").BeginObject();
  json.Key("critical_flow_sec");
  WritePercentiles(json, critical_flow);
  json.Key("round_comm_sec");
  WritePercentiles(json, round_comm);
  json.EndObject();
  json.Key("totals").BeginObject();
  json.Key("calc_sec").Number(totals.calc_sec);
  json.Key("comm_sec").Number(totals.comm_sec());
  json.Key("critical_sec").Number(totals.critical_sec());
  json.Key("flow_sec").Number(totals.flow_sec);
  json.Key("matchmake_sec").Number(totals.matchmake_sec);
  json.Key("matchmake_wait_sec").Number(totals.matchmake_wait_sec);
  json.Key("modeled_sec").Number(model.modeled_us / 1e6);
  json.Key("overhead_sec").Number(totals.overhead_sec);
  json.Key("rounds").Int(static_cast<int64_t>(rounds.size()));
  json.Key("runs").Int(model.num_runs);
  json.Key("unmodeled_sec").Number(model.unmodeled_us / 1e6);
  json.EndObject();
  json.EndObject();
  return json.ToString();
}

void AnalysisReport::PrintTable(std::ostream& os) const {
  const double critical_sec = totals.critical_sec();
  os << "critical-path attribution (hivesim-analysis/1): "
     << rounds.size() << " round(s), " << model.num_runs << " run(s), "
     << FormatSeconds(model.modeled_us / 1e6) << " s modeled, "
     << FormatSeconds(model.unmodeled_us / 1e6) << " s unmodeled\n\n";

  TableWriter phase_table({"Phase", "Critical s", "Share"});
  const auto phase_row = [&](const char* name, double sec) {
    phase_table.AddRow(
        {name, FormatSeconds(sec), FormatShare(sec, critical_sec)});
  };
  phase_row("calc", totals.calc_sec);
  phase_row("flow (WAN)", totals.flow_sec);
  phase_row("comm overhead", totals.overhead_sec);
  phase_row("matchmake", totals.matchmake_sec);
  phase_row("matchmake-wait", totals.matchmake_wait_sec);
  phase_table.AddSeparator();
  phase_row("total", critical_sec);
  phase_table.Print(os);

  if (!links.empty()) {
    os << "\nWAN links by critical-path time\n";
    TableWriter link_table({"Link", "Critical s", "Share", "GB", "Flows"});
    size_t shown = 0;
    for (const LinkStat& link : links) {
      if (shown++ >= 10) break;
      link_table.AddRow({link.link, FormatSeconds(link.critical_sec),
                         FormatShare(link.critical_sec, critical_sec),
                         StrFormat("%.3f", link.bytes / 1e9),
                         StrFormat("%llu",
                                   static_cast<unsigned long long>(
                                       link.flows))});
    }
    link_table.Print(os);
  }

  os << "\nStragglers\n";
  os << StrFormat(
      "  round comm s:     p50 %.3f  p95 %.3f  p99 %.3f  (n=%llu)\n",
      round_comm.p50, round_comm.p95, round_comm.p99,
      static_cast<unsigned long long>(round_comm.count));
  os << StrFormat(
      "  critical flow s:  p50 %.3f  p95 %.3f  p99 %.3f  (n=%llu)\n",
      critical_flow.p50, critical_flow.p95, critical_flow.p99,
      static_cast<unsigned long long>(critical_flow.count));
  if (!peers.empty()) {
    TableWriter peer_table({"Peer", "Zone", "Critical s",
                            "Straggler rounds", "Sync s"});
    // Peers ranked by critical-path time (ties by id) — the senders
    // whose transfers most often bound the round.
    std::vector<const PeerStat*> ranked;
    ranked.reserve(peers.size());
    for (const PeerStat& peer : peers) ranked.push_back(&peer);
    std::sort(ranked.begin(), ranked.end(),
              [](const PeerStat* a, const PeerStat* b) {
                if (a->critical_sec != b->critical_sec) {
                  return a->critical_sec > b->critical_sec;
                }
                return a->peer < b->peer;
              });
    size_t shown = 0;
    for (const PeerStat* peer : ranked) {
      if (shown++ >= 8) break;
      peer_table.AddRow(
          {StrFormat("%d", peer->peer), peer->zone,
           FormatSeconds(peer->critical_sec),
           StrFormat("%llu",
                     static_cast<unsigned long long>(
                         peer->straggler_rounds)),
           FormatSeconds(peer->sync_sec)});
    }
    peer_table.Print(os);
  }

  if (!headroom.empty()) {
    os << StrFormat("\nHeadroom (what-if: link bandwidth x%.1f)\n",
                    options.what_if_factor);
    for (const HeadroomEstimate& h : headroom) {
      os << StrFormat(
          "  %s carries %.1f%% of critical-path time; speeding it "
          "x%.1f bounds overall speedup at %.2fx\n",
          h.link.c_str(), 100.0 * h.critical_share,
          options.what_if_factor, h.speedup_bound);
    }
  }

  if (!reconciliation.empty()) {
    os << "\nReconciliation vs trainer counters\n";
    TableWriter rec_table({"Counter", "Trace s", "Counter s", "Delta s"});
    for (const ReconciliationRow& row : reconciliation) {
      rec_table.AddRow({row.name, StrFormat("%.6f", row.trace_sec),
                        StrFormat("%.6f", row.counter_sec),
                        StrFormat("%+.9f", row.delta_sec)});
    }
    rec_table.Print(os);
  }
}

}  // namespace hivesim::telemetry

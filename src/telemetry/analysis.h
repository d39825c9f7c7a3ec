#ifndef HIVESIM_TELEMETRY_ANALYSIS_H_
#define HIVESIM_TELEMETRY_ANALYSIS_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_parse.h"
#include "common/result.h"
#include "telemetry/round_model.h"

namespace hivesim::telemetry {

/// Critical-path bottleneck attribution over a recorded trace: which
/// resource — compute, a WAN link, stragglers, matchmaking — bounds
/// training throughput, per round and in aggregate, plus what-if
/// headroom bounds for speeding up the top links. Consumes the round
/// model built by telemetry/round_model.h from a Chrome trace's text:
/// post-hoc from a written file (`hivesim analyze`), or in-process from
/// the bytes the live recorder renders (`--analysis-out`). Same seed =>
/// byte-identical `ToJson()` output.

struct AnalysisOptions {
  /// Number of headroom entries (top links by critical-path time).
  int top_k = 5;
  /// What-if link speed multiplier used for the headroom bound.
  double what_if_factor = 2.0;
};

/// Critical-path seconds per phase (all in sim-seconds).
struct PhaseTotals {
  double calc_sec = 0;
  double matchmake_wait_sec = 0;
  double matchmake_sec = 0;
  double flow_sec = 0;      ///< Bound by a WAN transfer.
  double overhead_sec = 0;  ///< Comm window with no flow in flight.

  double critical_sec() const {
    return calc_sec + matchmake_wait_sec + matchmake_sec + flow_sec +
           overhead_sec;
  }
  /// The trainer's "comm" aggregate: everything after calc.
  double comm_sec() const {
    return matchmake_wait_sec + matchmake_sec + flow_sec + overhead_sec;
  }
};

/// Attribution for one WAN link ("src_zone->dst_zone").
struct LinkStat {
  std::string link;
  double critical_sec = 0;  ///< Critical-path time bound by this link.
  double bytes = 0;         ///< Bytes of round-assigned flows on it.
  uint64_t flows = 0;       ///< Round-assigned flow count.
};

/// Attribution for one peer (flows it sent that bound the round).
struct PeerStat {
  int peer = -1;
  std::string zone;            ///< From flow args; "?" when unknown.
  double critical_sec = 0;     ///< Critical kFlow time with src==peer.
  uint64_t straggler_rounds = 0;  ///< Rounds whose last critical flow
                                  ///< was sent by this peer.
  double accumulate_sec = 0;   ///< From the peer/<n> timeline lanes.
  double average_sec = 0;
  double sync_sec = 0;
};

/// Per-round summary row (full segment detail stays in `model`).
struct RoundSummary {
  int run = 0;
  int epoch = 0;
  double start_sec = 0;
  double end_sec = 0;
  PhaseTotals phases;
  std::string binding_link;  ///< Link with the most critical time; ""
                             ///< when no flow was ever binding.
  int straggler_peer = -1;   ///< Sender of the last critical flow.
  int retries = 0;
  bool degraded = false;
  std::vector<std::string> chaos;
};

/// p50/p95/p99 of a straggler distribution, interpolated from the
/// analyzer's fixed histogram buckets (MetricsRegistry percentiles).
struct StragglerPercentiles {
  uint64_t count = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// Amdahl-style what-if: speeding the link by `what_if_factor` removes
/// at most critical_share*(1-1/factor) of total critical time, bounding
/// the whole-run speedup. An upper bound: the re-evaluation shortens
/// critical segments in place and ignores that a different activity
/// (another flow, another phase) becomes binding once this one shrinks.
struct HeadroomEstimate {
  std::string link;
  double critical_share = 0;  ///< link critical / total critical.
  double speedup_bound = 1;
};

/// One trace-vs-metrics consistency row (CLI --metrics; tests).
struct ReconciliationRow {
  std::string name;        ///< Counter name in the metrics snapshot.
  double trace_sec = 0;    ///< Analyzer's total from the trace.
  double counter_sec = 0;  ///< The trainer's own counter.
  double delta_sec = 0;    ///< trace - counter.
};

struct AnalysisReport {
  RoundModel model;
  PhaseTotals totals;
  std::vector<RoundSummary> rounds;      ///< Parallel to model.rounds.
  std::vector<LinkStat> links;           ///< Critical desc, then name.
  std::vector<PeerStat> peers;           ///< Peer id ascending.
  StragglerPercentiles round_comm;       ///< Per-round comm seconds.
  StragglerPercentiles critical_flow;    ///< Critical flow-segment secs.
  std::vector<HeadroomEstimate> headroom;
  std::vector<ReconciliationRow> reconciliation;  ///< Empty until
                                                  ///< AttachMetricsJson.
  AnalysisOptions options;

  /// The deterministic `analysis.json` document (schema
  /// "hivesim-analysis/1"), sorted keys/sections, no trailing newline.
  std::string ToJson() const;

  /// The paper-Fig.2-style terminal rendering: phase breakdown, top
  /// links, stragglers, headroom.
  void PrintTable(std::ostream& os) const;
};

/// The analyzer's one entry point: attribution over the text of a
/// Chrome trace (`TraceRecorder::ToChromeJson`).
Result<AnalysisReport> AnalyzeChromeJson(std::string_view json_text,
                                         const AnalysisOptions& options = {});

/// Cross-checks the report's phase totals against the trainer's own
/// phase counters (trainer.calc_sec | trainer.comm_sec |
/// trainer.matchmake_wait_sec) in a parsed `MetricsRegistry::ToJson`
/// snapshot, filling report->reconciliation; missing counters read as 0.
Status AttachMetricsJson(AnalysisReport* report, const JsonValue& doc);

}  // namespace hivesim::telemetry

#endif  // HIVESIM_TELEMETRY_ANALYSIS_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "telemetry/analysis.h"
#include "telemetry/round_model.h"
#include "telemetry/telemetry.h"
#include "tour_world.h"

namespace hivesim::telemetry {
namespace {

/// Every test analyzes a trace it built or recorded into its own sinks.
class AnalysisTest : public ::testing::Test {};

/// The worked example from docs/OBSERVABILITY.md: one round with
///   calc [0,10], matchmake-wait [10,12], comm [10,20],
///   flow 0->1 [12,16] (us->eu, 1 GB), flow 1->0 [14,19] (eu->us, 2 GB).
/// Hand-computed critical path:
///   calc 10 s; wait 2 s; us->eu binding on [12,14] (2 s, flow 1->0 not
///   yet started... actually both run on [14,16] but 1->0 ends later so
///   it wins the slice); eu->us on [14,19] (5 s); overhead [19,20] (1 s).
TraceRecorder TwoFlowRound() {
  TraceRecorder trace;
  // Recorder order matches the live system: flows are recorded as they
  // finish, trainer spans at epoch end. The model must not depend on it.
  trace.Span(12.0, 16.0, "net", "flow 0->1",
             "{\"bytes\":1000000000,\"src_zone\":\"gc-us\","
             "\"dst_zone\":\"gc-eu\"}");
  trace.Span(14.0, 19.0, "net", "flow 1->0",
             "{\"bytes\":2000000000,\"src_zone\":\"gc-eu\","
             "\"dst_zone\":\"gc-us\"}");
  trace.Span(0.0, 10.0, "trainer", "calc", "{\"epoch\":0}");
  trace.Span(10.0, 20.0, "trainer", "comm", "{\"epoch\":0}");
  trace.Span(10.0, 12.0, "trainer", "matchmake-wait", "{\"epoch\":0}");
  return trace;
}

TEST_F(AnalysisTest, CriticalPathMatchesHandComputedGraph) {
  auto report = AnalyzeChromeJson(TwoFlowRound().ToChromeJson());
  ASSERT_TRUE(report.ok());

  ASSERT_EQ(report->model.rounds.size(), 1u);
  const Round& round = report->model.rounds[0];
  EXPECT_EQ(round.epoch, 0);
  EXPECT_DOUBLE_EQ(round.start_us, 0.0);
  EXPECT_DOUBLE_EQ(round.calc_end_us, 10e6);
  EXPECT_DOUBLE_EQ(round.avg_start_us, 12e6);
  EXPECT_DOUBLE_EQ(round.end_us, 20e6);

  // Segments partition [0, 20 s]: calc, wait, flow 0->1, flow 1->0
  // (latest-ending flow wins the overlapped [14,16] slice), overhead.
  ASSERT_EQ(round.critical.size(), 5u);
  EXPECT_EQ(round.critical[0].phase, Phase::kCalc);
  EXPECT_DOUBLE_EQ(round.critical[0].end_us, 10e6);
  EXPECT_EQ(round.critical[1].phase, Phase::kMatchmakeWait);
  EXPECT_DOUBLE_EQ(round.critical[1].end_us, 12e6);
  EXPECT_EQ(round.critical[2].phase, Phase::kFlow);
  EXPECT_EQ(round.critical[2].flow, 0);
  EXPECT_DOUBLE_EQ(round.critical[2].end_us, 14e6);
  EXPECT_EQ(round.critical[3].phase, Phase::kFlow);
  EXPECT_EQ(round.critical[3].flow, 1);
  EXPECT_DOUBLE_EQ(round.critical[3].end_us, 19e6);
  EXPECT_EQ(round.critical[4].phase, Phase::kOverhead);
  EXPECT_DOUBLE_EQ(round.critical[4].end_us, 20e6);

  EXPECT_DOUBLE_EQ(report->totals.calc_sec, 10.0);
  EXPECT_DOUBLE_EQ(report->totals.matchmake_wait_sec, 2.0);
  EXPECT_DOUBLE_EQ(report->totals.matchmake_sec, 0.0);
  EXPECT_DOUBLE_EQ(report->totals.flow_sec, 7.0);
  EXPECT_DOUBLE_EQ(report->totals.overhead_sec, 1.0);
  EXPECT_DOUBLE_EQ(report->totals.critical_sec(), 20.0);

  // Link attribution: eu->us bound 5 s, us->eu 2 s.
  ASSERT_EQ(report->links.size(), 2u);
  EXPECT_EQ(report->links[0].link, "gc-eu->gc-us");
  EXPECT_DOUBLE_EQ(report->links[0].critical_sec, 5.0);
  EXPECT_DOUBLE_EQ(report->links[0].bytes, 2e9);
  EXPECT_EQ(report->links[0].flows, 1u);
  EXPECT_EQ(report->links[1].link, "gc-us->gc-eu");
  EXPECT_DOUBLE_EQ(report->links[1].critical_sec, 2.0);

  ASSERT_EQ(report->rounds.size(), 1u);
  EXPECT_EQ(report->rounds[0].binding_link, "gc-eu->gc-us");
  EXPECT_EQ(report->rounds[0].straggler_peer, 1);

  // Amdahl bound for the top link at the default x2 what-if:
  // share 5/20, removable 1/2 => 1 / (1 - 0.125) = 8/7.
  ASSERT_GE(report->headroom.size(), 1u);
  EXPECT_EQ(report->headroom[0].link, "gc-eu->gc-us");
  EXPECT_DOUBLE_EQ(report->headroom[0].critical_share, 0.25);
  EXPECT_NEAR(report->headroom[0].speedup_bound, 8.0 / 7.0, 1e-12);

  // Peer zones recovered from flow args; peer 1 sent the last binding
  // flow, so it is the round's straggler.
  ASSERT_EQ(report->peers.size(), 2u);
  EXPECT_EQ(report->peers[0].zone, "gc-us");
  EXPECT_EQ(report->peers[1].zone, "gc-eu");
  EXPECT_EQ(report->peers[1].straggler_rounds, 1u);
  EXPECT_DOUBLE_EQ(report->peers[1].critical_sec, 5.0);
}

TEST_F(AnalysisTest, MatchmakeSpansRefineTheWaitWindow) {
  TraceRecorder trace;
  trace.Span(0.0, 10.0, "trainer", "calc", "{\"epoch\":0}");
  trace.Span(10.0, 20.0, "trainer", "comm", "{\"epoch\":0}");
  trace.Span(10.0, 14.0, "trainer", "matchmake-wait", "{\"epoch\":0}");
  trace.Span(11.0, 12.0, "trainer", "matchmake",
             "{\"discovered\":3,\"timed_out\":false}");
  trace.Span(14.0, 20.0, "net", "flow 1->0", "{\"bytes\":1}");

  auto report = AnalyzeChromeJson(trace.ToChromeJson());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->totals.calc_sec, 10.0);
  EXPECT_DOUBLE_EQ(report->totals.matchmake_wait_sec, 3.0);
  EXPECT_DOUBLE_EQ(report->totals.matchmake_sec, 1.0);
  EXPECT_DOUBLE_EQ(report->totals.flow_sec, 6.0);
  EXPECT_DOUBLE_EQ(report->totals.overhead_sec, 0.0);
  // Without zone args the link falls back to node identity.
  ASSERT_EQ(report->links.size(), 1u);
  EXPECT_EQ(report->links[0].link, "node1->node0");
}

TEST_F(AnalysisTest, RunMarkersSegmentTraceAndIncompleteRoundsDrop) {
  TraceRecorder trace;
  trace.Span(0.0, 5.0, "trainer", "calc", "{\"epoch\":0}");
  trace.Span(5.0, 8.0, "trainer", "comm", "{\"epoch\":0}");
  trace.Instant(0.0, "trace", "run-start");
  trace.Span(0.0, 5.0, "trainer", "calc", "{\"epoch\":0}");
  trace.Span(5.0, 9.0, "trainer", "comm", "{\"epoch\":0}");
  trace.Span(9.0, 12.0, "trainer", "calc", "{\"epoch\":1}");  // No comm.

  auto report = AnalyzeChromeJson(trace.ToChromeJson());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->model.num_runs, 2);
  ASSERT_EQ(report->model.rounds.size(), 2u);
  EXPECT_EQ(report->model.rounds[0].run, 0);
  EXPECT_EQ(report->model.rounds[1].run, 1);
  EXPECT_DOUBLE_EQ(report->model.modeled_us, 17e6);
  // Run 2's dangling calc extends the extent but models no round.
  EXPECT_DOUBLE_EQ(report->model.unmodeled_us, 3e6);
}

TEST_F(AnalysisTest, AttachMetricsJsonRejectsNonSnapshots) {
  auto report = AnalyzeChromeJson(TwoFlowRound().ToChromeJson());
  ASSERT_TRUE(report.ok());
  auto doc = ParseJson("{\"not_counters\":{}}");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(AttachMetricsJson(&report.value(), *doc).ok());
}

/// What `--analysis-out` analyzes for one seeded run of the tour world
/// (partition, crash/restart) — the same world telemetry_test renders:
/// its trace and metrics, rendered as the files `--trace-out` and
/// `--metrics-out` hold.
Result<AnalysisReport> AnalyzeChaosTraining(uint64_t seed) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  tour::RunWorld(seed, &trace, &metrics);
  AnalysisReport report;
  HIVESIM_ASSIGN_OR_RETURN(report, AnalyzeChromeJson(trace.ToChromeJson()));
  JsonValue metrics_json;
  HIVESIM_ASSIGN_OR_RETURN(metrics_json, ParseJson(metrics.ToJson()));
  HIVESIM_RETURN_IF_ERROR(AttachMetricsJson(&report, metrics_json));
  return report;
}

TEST_F(AnalysisTest, PhaseTotalsReconcileWithTrainerCounters) {
  auto report = AnalyzeChaosTraining(11);
  ASSERT_TRUE(report.ok());
  // The run exercised the interesting paths.
  EXPECT_GT(report->model.rounds.size(), 0u);
  EXPECT_GT(report->links.size(), 0u);
  EXPECT_GT(report->totals.flow_sec, 0.0);
  ASSERT_EQ(report->reconciliation.size(), 3u);
  for (const ReconciliationRow& row : report->reconciliation) {
    // Calc and comm always accrue; matchmake-wait legitimately stays 0
    // when the TBS lands after the matchmaking floor every round.
    if (row.name != "trainer.matchmake_wait_sec") {
      EXPECT_GT(row.counter_sec, 0.0) << row.name;
    }
    EXPECT_LE(std::fabs(row.delta_sec), 1e-9) << row.name;
  }
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"schema\":\"hivesim-analysis/1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"reconciliation\":["), std::string::npos);
}

TEST_F(AnalysisTest, IdenticallySeededRunsAnalyzeByteIdentically) {
  auto first = AnalyzeChaosTraining(17);
  ASSERT_TRUE(first.ok());
  const std::string first_json = first->ToJson();

  auto second = AnalyzeChaosTraining(17);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first_json, second->ToJson());

  auto other = AnalyzeChaosTraining(18);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(first_json, other->ToJson());
}

}  // namespace
}  // namespace hivesim::telemetry

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/units.h"
#include "hivemind/monitor.h"
#include "hivemind/trainer.h"
#include "net/profiles.h"
#include "sim/simulator.h"
#include "telemetry/telemetry.h"
#include "tour_world.h"

namespace hivesim::telemetry {
namespace {

/// Telemetry is a process-global switchboard. Every test that records
/// does so into its own sinks (`Telemetry::ScopedSinks`), so the global
/// ones stay disabled and empty for the whole process.
class TelemetryTest : public ::testing::Test {};

TEST_F(TelemetryTest, ChromeJsonHasMetadataLanesAndMicroseconds) {
  TraceRecorder trace;
  trace.Span(1.5, 2.25, "net", "flow 1->2", "{\"bytes\":42}");
  trace.Instant(3.0, "chaos", "crash");

  const std::string json = trace.ToChromeJson();
  // Envelope + process metadata.
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  // One thread_name metadata record per lane, tid = first-use order + 1.
  EXPECT_NE(json.find("\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"net\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"chaos\"}"),
            std::string::npos);
  // Seconds become microseconds: 1.5 s -> 1500000.000, dur 0.75 s.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":750000.000"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":42}"), std::string::npos);
  // Instants carry thread scope.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.lanes(), (std::vector<std::string>{"net", "chaos"}));
}

TEST_F(TelemetryTest, HistogramPercentilesInterpolateWithinBuckets) {
  MetricsRegistry metrics;
  metrics.DefineHistogram("h", {1, 2, 5});
  // Buckets: (<=1): 2 obs, (1,2]: 2 obs, (2,5]: 0, overflow: 0.
  metrics.Observe("h", 0.5);
  metrics.Observe("h", 0.9);
  metrics.Observe("h", 1.5);
  metrics.Observe("h", 1.8);

  // p50: rank 2 falls at the end of the first bucket [0,1] -> 1.0.
  auto p50 = metrics.HistogramP50("h");
  ASSERT_TRUE(p50.ok());
  EXPECT_DOUBLE_EQ(*p50, 1.0);
  // p75: rank 3 is halfway through the (1,2] bucket -> 1.5.
  auto p75 = metrics.HistogramPercentile("h", 0.75);
  ASSERT_TRUE(p75.ok());
  EXPECT_DOUBLE_EQ(*p75, 1.5);
  // p100 caps at the last occupied bucket's upper bound.
  auto p100 = metrics.HistogramPercentile("h", 1.0);
  ASSERT_TRUE(p100.ok());
  EXPECT_DOUBLE_EQ(*p100, 2.0);
}

TEST_F(TelemetryTest, HistogramPercentileOverflowClampsToLastFiniteBound) {
  MetricsRegistry metrics;
  metrics.DefineHistogram("h", {1, 2, 5});
  metrics.Observe("h", 100);  // Overflow bucket only.
  auto p99 = metrics.HistogramP99("h");
  ASSERT_TRUE(p99.ok());
  EXPECT_DOUBLE_EQ(*p99, 5.0);
}

TEST_F(TelemetryTest, HistogramPercentileErrorsOnEmptyOrBadInput) {
  MetricsRegistry metrics;
  EXPECT_FALSE(metrics.HistogramP95("missing").ok());
  metrics.DefineHistogram("empty", {1, 2});
  EXPECT_FALSE(metrics.HistogramP95("empty").ok());

  metrics.DefineHistogram("h", {1});
  metrics.Observe("h", 0.5);
  EXPECT_FALSE(metrics.HistogramPercentile("h", -0.1).ok());
  EXPECT_FALSE(metrics.HistogramPercentile("h", 1.5).ok());
  EXPECT_TRUE(metrics.HistogramPercentile("h", 0.0).ok());
}

TEST_F(TelemetryTest, RegistryCountsGaugesAndHistograms) {
  MetricsRegistry metrics;
  metrics.Count("net.flows_started");
  metrics.Count("net.flows_started", 2);
  metrics.SetGauge("trainer.granularity", 4.5);
  metrics.DefineHistogram("collective.stage_transfers", {1, 2, 5});
  metrics.Observe("collective.stage_transfers", 2);
  metrics.Observe("collective.stage_transfers", 100);  // Overflow bucket.

  EXPECT_DOUBLE_EQ(metrics.CounterValue("net.flows_started"), 3.0);
  EXPECT_DOUBLE_EQ(metrics.CounterValue("never.incremented"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.GaugeOr("trainer.granularity", -1), 4.5);
  EXPECT_DOUBLE_EQ(metrics.GaugeOr("missing.gauge", -1), -1.0);
  EXPECT_EQ(metrics.HistogramCount("collective.stage_transfers"), 2u);

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"net.flows_started\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trainer.granularity\":4.5"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"inf\""), std::string::npos);
  // Keys come out sorted, so counters precede gauges precede histograms
  // and the document is byte-stable across identical runs.
  EXPECT_LT(json.find("\"counters\""), json.find("\"gauges\""));
  EXPECT_LT(json.find("\"gauges\""), json.find("\"histograms\""));
}

TEST_F(TelemetryTest, LabeledNameFoldsLabelsIntoTheName) {
  EXPECT_EQ(LabeledName("net.bytes_delivered",
                        {{"src_zone", "gc-us"}, {"dst_zone", "gc-eu"}}),
            "net.bytes_delivered{src_zone=gc-us,dst_zone=gc-eu}");
  EXPECT_EQ(LabeledName("x", {}), "x{}");
}

TEST_F(TelemetryTest, DisabledFastPathRecordsNothing) {
  Telemetry::Disable();
  Span(0, 1, "net", "flow");
  Instant(0, "net", "x");
  Count("c");
  Gauge("g", 1);
  Observe("h", 1);
  EXPECT_EQ(Telemetry::trace().size(), 0u);
  EXPECT_DOUBLE_EQ(Telemetry::metrics().CounterValue("c"), 0.0);
  EXPECT_EQ(Telemetry::metrics().ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST_F(TelemetryTest, InstrumentedTrainingFillsRegistryAndLanes) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  Telemetry::ScopedSinks sinks(&trace, &metrics);
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);

  hivemind::TrainerConfig config;
  config.model = models::ModelId::kConvNextLarge;
  hivemind::Trainer trainer(&network, config);
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec peer;
    peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
    ASSERT_TRUE(trainer.AddPeer(peer).ok());
  }
  auto stats = trainer.RunFor(kHour);
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->epochs, 0);

  EXPECT_DOUBLE_EQ(metrics.CounterValue("trainer.epochs"), stats->epochs);
  EXPECT_GT(metrics.CounterValue("sim.events_fired"), 0.0);
  EXPECT_GT(metrics.CounterValue("net.flows_completed"), 0.0);
  EXPECT_GT(metrics.CounterValue("net.bytes_delivered"), 0.0);
  EXPECT_GT(metrics.CounterValue("collective.rounds"), 0.0);
  EXPECT_NEAR(metrics.GaugeOr("trainer.granularity", -1),
              stats->granularity, 1e-9);

  // Per-peer timeline lanes plus the subsystem lanes showed up.
  const auto& lanes = trace.lanes();
  auto has_lane = [&](const std::string& lane) {
    for (const auto& l : lanes)
      if (l == lane) return true;
    return false;
  };
  EXPECT_TRUE(has_lane("net"));
  EXPECT_TRUE(has_lane("trainer"));
  EXPECT_TRUE(has_lane("collective"));
  EXPECT_TRUE(has_lane("peer/0"));
}

TEST_F(TelemetryTest, MonitorSnapshotsCarryGranularityAndAveragingState) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  Telemetry::ScopedSinks sinks(&trace, &metrics);
  sim::Simulator sim;
  net::Topology topo = net::StandardWorld();
  net::Network network(&sim, &topo);

  hivemind::TrainerConfig config;
  hivemind::Trainer trainer(&network, config);
  for (int i = 0; i < 4; ++i) {
    hivemind::PeerSpec peer;
    peer.node = topo.AddNode(net::kGcUs, net::CloudVmNetConfig());
    ASSERT_TRUE(trainer.AddPeer(peer).ok());
  }
  hivemind::TrainingMonitor monitor(&sim, &trainer, /*interval_sec=*/10.0);
  ASSERT_TRUE(trainer.Start().ok());
  monitor.Start();
  sim.RunUntil(kHour);
  trainer.Stop();
  monitor.Stop();

  ASSERT_FALSE(monitor.snapshots().empty());
  const auto& last = monitor.snapshots().back();
  EXPECT_GT(last.epoch, 0);
  EXPECT_GT(last.granularity, 0.0);
  bool saw_in_flight = false;
  for (const auto& snap : monitor.snapshots()) {
    EXPECT_TRUE(snap.averaging_in_flight == 0 ||
                snap.averaging_in_flight == 1);
    saw_in_flight |= snap.averaging_in_flight == 1;
  }
  EXPECT_TRUE(saw_in_flight);
}

/// One seeded run of the tour world (partition, crash/restart),
/// returning the rendered telemetry.
struct RenderedRun {
  std::string trace_json;
  std::string metrics_json;
  double chaos_events = 0;
};

RenderedRun ChaosRun(uint64_t seed) {
  TraceRecorder trace;
  MetricsRegistry metrics;
  tour::RunWorld(seed, &trace, &metrics);
  RenderedRun run;
  run.trace_json = trace.ToChromeJson();
  run.metrics_json = metrics.ToJson();
  run.chaos_events = metrics.CounterValue("chaos.events");
  return run;
}

TEST_F(TelemetryTest, MergeSumsCountersMaxesGaugesAndAddsBuckets) {
  MetricsRegistry a;
  a.Count("cells", 2);
  a.Count("only_a", 1);
  a.SetGauge("peak", 5);
  a.SetGauge("only_a_gauge", 1);
  a.DefineHistogram("round_sec", {1, 10});
  a.Observe("round_sec", 0.5);
  a.Observe("round_sec", 7);

  MetricsRegistry b;
  b.Count("cells", 3);
  b.SetGauge("peak", 4);
  b.DefineHistogram("round_sec", {1, 10});
  b.Observe("round_sec", 100);

  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.CounterValue("cells"), 5.0);
  EXPECT_DOUBLE_EQ(a.CounterValue("only_a"), 1.0);
  EXPECT_DOUBLE_EQ(a.GaugeOr("peak", -1), 5.0);  // Max, not last-write.
  EXPECT_DOUBLE_EQ(a.GaugeOr("only_a_gauge", -1), 1.0);
  EXPECT_EQ(a.HistogramCount("round_sec"), 3u);

  // Merge must commute (the aggregator folds registries from whatever
  // order cells complete in): b <- a gives the same totals.
  MetricsRegistry c;
  c.Count("cells", 3);
  c.SetGauge("peak", 4);
  c.DefineHistogram("round_sec", {1, 10});
  c.Observe("round_sec", 100);
  MetricsRegistry d;
  d.Count("cells", 2);
  d.Count("only_a", 1);
  d.SetGauge("peak", 5);
  d.SetGauge("only_a_gauge", 1);
  d.DefineHistogram("round_sec", {1, 10});
  d.Observe("round_sec", 0.5);
  d.Observe("round_sec", 7);
  c.Merge(d);
  EXPECT_EQ(c.ToJson(), a.ToJson());
}

TEST_F(TelemetryTest, UnsortedHistogramBoundsAreSortedAndDeduplicated) {
  MetricsRegistry metrics;
  // Declaration-order binning would put a value of 3 into the "10"
  // bucket (first bound >= 3 in the declared order); the contract says
  // bounds are ascending, so it belongs in "5".
  metrics.DefineHistogram("h", {10, 1, 5, 5, 2});
  metrics.Observe("h", 3);
  metrics.Observe("h", 0.5);
  metrics.Observe("h", 100);  // Overflow.
  EXPECT_EQ(metrics.HistogramCount("h"), 3u);

  const std::string json = metrics.ToJson();
  // Bounds come out sorted and unique: 1, 2, 5, 10, inf.
  const size_t le1 = json.find("\"le\":1");
  const size_t le2 = json.find("\"le\":2");
  const size_t le5 = json.find("\"le\":5");
  const size_t le10 = json.find("\"le\":10");
  ASSERT_NE(le1, std::string::npos);
  ASSERT_NE(le10, std::string::npos);
  EXPECT_LT(le1, le2);
  EXPECT_LT(le2, le5);
  EXPECT_LT(le5, le10);
  // The duplicate 5 was dropped: exactly one "le":5 bucket.
  EXPECT_EQ(json.find("\"le\":5", le5 + 1), std::string::npos);
  // 3 landed in the "5" bucket, 0.5 in "1", 100 in overflow.
  EXPECT_NE(json.find("{\"le\":1,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":5,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"inf\",\"count\":1}"), std::string::npos);
}

TEST_F(TelemetryTest, ValidHistogramBoundsAreKeptVerbatim) {
  MetricsRegistry metrics;
  metrics.DefineHistogram("h", {1, 2, 5});
  metrics.Observe("h", 2);    // Boundary value: first bound >= 2 is 2.
  metrics.Observe("h", 2.01);
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("{\"le\":2,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":5,\"count\":1}"), std::string::npos);
}

TEST_F(TelemetryTest, CounterSaturationBumpsPrecisionLossCounter) {
  MetricsRegistry metrics;
  const double ceiling = 9007199254740992.0;  // 2^53.
  metrics.Count("big", ceiling);
  metrics.Count("big", 1.0);  // Absorbed: 2^53 + 1 rounds back to 2^53.
  EXPECT_DOUBLE_EQ(metrics.CounterValue("big"), ceiling);
  EXPECT_DOUBLE_EQ(
      metrics.CounterValue(MetricsRegistry::kPrecisionLossCounter), 1.0);
  // A delta large enough to move the value is not precision loss.
  metrics.Count("big", 2.0);
  EXPECT_DOUBLE_EQ(metrics.CounterValue("big"), ceiling + 2);
  EXPECT_DOUBLE_EQ(
      metrics.CounterValue(MetricsRegistry::kPrecisionLossCounter), 1.0);
}

TEST_F(TelemetryTest, CounterHandleSaturationAlsoDetected) {
  MetricsRegistry metrics;
  Telemetry::ScopedSinks sinks(nullptr, &metrics);
  CounterHandle handle("big");
  handle.Add(9007199254740992.0);  // 2^53.
  handle.Add(1.0);                 // Absorbed.
  EXPECT_DOUBLE_EQ(metrics.CounterValue("big"), 9007199254740992.0);
  EXPECT_DOUBLE_EQ(
      metrics.CounterValue(MetricsRegistry::kPrecisionLossCounter), 1.0);
}

TEST_F(TelemetryTest, MergeWithMismatchedBoundsCountsConflicts) {
  MetricsRegistry a;
  a.DefineHistogram("h", {1, 2});
  a.Observe("h", 1);
  MetricsRegistry b;
  b.DefineHistogram("h", {5, 50});
  b.Observe("h", 10);
  b.Observe("h", 20);
  a.Merge(b);
  // The first definition wins; the incompatible observations are surfaced
  // instead of silently misbinned.
  EXPECT_EQ(a.HistogramCount("h"), 1u);
  EXPECT_DOUBLE_EQ(a.CounterValue("h#merge_conflicts"), 2.0);
}

TEST_F(TelemetryTest, ScopedSinksRouteThisThreadAndRestoreOnExit) {
  Telemetry::Disable();  // Even disabled, a scope forces capture...
  TraceRecorder private_trace;
  MetricsRegistry private_metrics;
  {
    Telemetry::ScopedSinks sinks(&private_trace, &private_metrics);
    EXPECT_TRUE(Telemetry::Enabled());
    Span(0, 1, "net", "flow");
    Count("c", 2);

    // ...and scopes nest LIFO.
    TraceRecorder inner_trace;
    MetricsRegistry inner_metrics;
    {
      Telemetry::ScopedSinks inner(&inner_trace, &inner_metrics);
      Count("c", 40);
    }
    EXPECT_EQ(inner_trace.size(), 0u);
    EXPECT_DOUBLE_EQ(inner_metrics.CounterValue("c"), 40.0);
    Count("c", 1);
  }
  EXPECT_EQ(private_trace.size(), 1u);
  EXPECT_DOUBLE_EQ(private_metrics.CounterValue("c"), 3.0);
  // After the scope the thread is back on the (disabled) globals.
  EXPECT_FALSE(Telemetry::Enabled());
  Count("c", 100);
  EXPECT_DOUBLE_EQ(Telemetry::metrics().CounterValue("c"), 0.0);
  EXPECT_EQ(Telemetry::trace().size(), 0u);
}

TEST_F(TelemetryTest, IdenticallySeededChaosRunsRenderByteIdentically) {
  const RenderedRun first = ChaosRun(11);
  const RenderedRun second = ChaosRun(11);
  EXPECT_EQ(first.trace_json, second.trace_json);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  // Chaos actually happened, so the equality above covers fault paths.
  EXPECT_NE(first.trace_json.find("chaos"), std::string::npos);
  EXPECT_GT(first.chaos_events, 0.0);

  const RenderedRun other = ChaosRun(12);
  EXPECT_NE(first.trace_json, other.trace_json);
}

// The calls every SameRecording case feeds a recorder, with at most one
// difference from the reference sequence.
enum class Tweak {
  kNone,
  kTsUlp,       // The instant's timestamp one ulp later.
  kDurUlp,      // The span's end, and so its duration, one ulp later.
  kArgsByte,    // One args byte differs.
  kNameByte,    // One name byte differs.
  kLaneOrder,   // The same events, but the two lanes swap names.
  kExtraEvent,  // One more instant at the end.
};

void Feed(TraceRecorder* trace, Tweak tweak) {
  const double end = 2.5;
  const bool swap_lanes = tweak == Tweak::kLaneOrder;
  trace->Span(1.25, tweak == Tweak::kDurUlp ? std::nextafter(end, 3.0) : end,
              swap_lanes ? "chaos" : "net",
              tweak == Tweak::kNameByte ? "flow 1->3" : "flow 1->2",
              tweak == Tweak::kArgsByte ? "{\"bytes\":43}"
                                        : "{\"bytes\":42}");
  const double at = 3.0;
  trace->Instant(tweak == Tweak::kTsUlp ? std::nextafter(at, 4.0) : at,
                 swap_lanes ? "net" : "chaos", "crash node 1");
  trace->Span(3.0, 3.0, "net", "flow 2->1");
  if (tweak == Tweak::kExtraEvent) trace->Instant(4.0, "chaos", "restart");
}

TEST_F(TelemetryTest, SameCallsAreTheSameRecordingAndRenderAlike) {
  TraceRecorder a;
  TraceRecorder b;
  // Stale state must not survive Clear: b starts from a cleared recorder
  // that held other lanes, names and args.
  b.Span(0.0, 9.0, "stale", "old span", "{\"old\":true}");
  b.Clear();
  Feed(&a, Tweak::kNone);
  Feed(&b, Tweak::kNone);
  EXPECT_TRUE(a.SameRecording(b));
  EXPECT_TRUE(b.SameRecording(a));
  EXPECT_EQ(a.ToChromeJson(), b.ToChromeJson());
}

TEST_F(TelemetryTest, SameRecordingSeesEveryDifference) {
  TraceRecorder reference;
  Feed(&reference, Tweak::kNone);
  for (const Tweak tweak :
       {Tweak::kTsUlp, Tweak::kDurUlp, Tweak::kArgsByte, Tweak::kNameByte,
        Tweak::kLaneOrder, Tweak::kExtraEvent}) {
    TraceRecorder tweaked;
    Feed(&tweaked, tweak);
    EXPECT_FALSE(reference.SameRecording(tweaked))
        << "tweak " << static_cast<int>(tweak);
    EXPECT_FALSE(tweaked.SameRecording(reference))
        << "tweak " << static_cast<int>(tweak);
  }
}

}  // namespace
}  // namespace hivesim::telemetry

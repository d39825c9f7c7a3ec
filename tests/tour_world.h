#ifndef HIVESIM_TESTS_TOUR_WORLD_H_
#define HIVESIM_TESTS_TOUR_WORLD_H_

// The telemetry tour's world, shared by the tests that need a whole
// chaos run: `hivesim fleet --spec gc-us:2,gc-eu:2 --hours 1.5 --scenario
// tools/testdata/bad-afternoon.json` (and `examples/chaos_demo`) build
// the same one. The pack partitions the US<->EU link over minutes 20-35
// and crashes EU peer 3 at minute 45 for ten minutes.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/units.h"
#include "core/experiment.h"
#include "scenario/scenario.h"
#include "telemetry/telemetry.h"

namespace hivesim::tour {

/// The committed `bad-afternoon` scenario pack.
inline scenario::ScenarioPack BadAfternoonPack() {
  auto pack = scenario::LoadScenarioFile(HIVESIM_REPO_ROOT
                                         "/tools/testdata/bad-afternoon.json");
  EXPECT_TRUE(pack.ok()) << pack.status().ToString();
  return pack.ok() ? *pack : scenario::ScenarioPack{};
}

/// Runs the tour world (2x T4 in GC us-central1 + 2x in europe-west1,
/// ConvNext-Large, 90 minutes, the bad-afternoon pack) with `seed`,
/// through the path `hivesim fleet` takes, recording into `trace` and
/// `metrics`.
inline void RunWorld(uint64_t seed, telemetry::TraceRecorder* trace,
                     telemetry::MetricsRegistry* metrics) {
  telemetry::Telemetry::ScopedSinks sinks(trace, metrics);
  core::ExperimentConfig config;
  config.duration_sec = 1.5 * kHour;
  config.seed = seed;
  const scenario::ScenarioPack pack = BadAfternoonPack();
  auto result = core::RunHivemindExperiment(
      core::ClusterSpec{
          {core::GcT4s(2, net::kGcUs), core::GcT4s(2, net::kGcEu)}},
      config, &pack);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace hivesim::tour

#endif  // HIVESIM_TESTS_TOUR_WORLD_H_

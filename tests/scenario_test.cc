// Scenario packs: canonical serialization round-trips, committed
// preset-pack files byte-identical to the builtin packs, preset
// compilation pinned event-for-event to the legacy in-code schedules,
// compile semantics for the new diurnal/zone/contention phenomena, and
// the bad-pack corpus (every malformed field an offset- or line-tagged
// error, never a crash or a silent default).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/units.h"
#include "net/profiles.h"
#include "scenario/scenario.h"

namespace hivesim {
namespace {

constexpr char kRepoRoot[] = HIVESIM_REPO_ROOT;
constexpr char kFixtureDir[] = HIVESIM_SCENARIO_FIXTURE_DIR;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A synthetic two-site fleet view (2x gc-us + 2x gc-eu) that needs no
/// world provisioning.
scenario::FleetView TwoSiteFleet() {
  return scenario::MakeFleetView({
      {1, net::kGcUs, net::Continent::kUs},
      {2, net::kGcUs, net::Continent::kUs},
      {3, net::kGcEu, net::Continent::kEu},
      {4, net::kGcEu, net::Continent::kEu},
  });
}

scenario::FleetView SingleSiteFleet() {
  return scenario::MakeFleetView({
      {1, net::kGcUs, net::Continent::kUs},
      {2, net::kGcUs, net::Continent::kUs},
  });
}

// --- Canonical serialization ------------------------------------------

TEST(ScenarioRoundTrip, BuiltinPacksAreByteStable) {
  for (const std::string& name : scenario::BuiltinScenarioNames()) {
    auto pack = scenario::BuiltinScenario(name);
    ASSERT_TRUE(pack.ok()) << name;
    const std::string bytes = scenario::ScenarioToJson(*pack);
    auto reparsed = scenario::ParseScenario(bytes);
    ASSERT_TRUE(reparsed.ok()) << name << ": " << reparsed.status().ToString();
    EXPECT_EQ(bytes, scenario::ScenarioToJson(*reparsed)) << name;
  }
}

TEST(ScenarioRoundTrip, ReproSectionSurvives) {
  scenario::ScenarioPack pack;
  pack.name = "repro-rt";
  pack.crashes.push_back({1, 0.5, /*frac=*/true, 600});
  pack.repro.present = true;
  pack.repro.fleet = "gc-us:2,aws:1";
  pack.repro.seed = (uint64_t{1} << 52) - 1;  // Largest generator seed.
  pack.repro.duration_sec = 480;
  pack.repro.target_batch_size = 4096;
  pack.repro.model = "CONV";
  pack.repro.oracle = "chaos-fingerprint";
  const std::string bytes = scenario::ScenarioToJson(pack);
  auto reparsed = scenario::ParseScenario(bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(reparsed->repro.present);
  EXPECT_EQ(reparsed->repro.fleet, pack.repro.fleet);
  EXPECT_EQ(reparsed->repro.seed, pack.repro.seed);
  EXPECT_EQ(reparsed->repro.oracle, pack.repro.oracle);
  EXPECT_EQ(bytes, scenario::ScenarioToJson(*reparsed));
}

TEST(ScenarioRoundTrip, SpotMarketSectionSurvives) {
  auto pack = scenario::ParseScenario(
      R"({"schema":"hivesim-scenario/1","name":"spot",)"
      R"("spot_market":{"monthly_interruption_rate":0.35}})");
  ASSERT_TRUE(pack.ok()) << pack.status().ToString();
  ASSERT_TRUE(pack->spot_market.has_value());
  EXPECT_EQ(pack->spot_market->monthly_interruption_rate, 0.35);
  EXPECT_EQ(pack->NumEvents(), 0u);  // World setup, not an event.
  const std::string bytes = scenario::ScenarioToJson(*pack);
  EXPECT_NE(bytes.find(R"("spot_market":{"monthly_interruption_rate":0.35})"),
            std::string::npos)
      << bytes;
  auto reparsed = scenario::ParseScenario(bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_TRUE(reparsed->spot_market.has_value());
  EXPECT_EQ(bytes, scenario::ScenarioToJson(*reparsed));

  // Without the section nothing is written for it.
  pack->spot_market.reset();
  EXPECT_EQ(scenario::ScenarioToJson(*pack).find("spot_market"),
            std::string::npos);
}

// The committed scenarios/<name>.json files are the builtin packs'
// canonical bytes plus a trailing newline — preset and pack file can
// never drift apart.
TEST(ScenarioFiles, CommittedPacksMatchBuiltins) {
  for (const std::string& name : scenario::BuiltinScenarioNames()) {
    auto pack = scenario::BuiltinScenario(name);
    ASSERT_TRUE(pack.ok()) << name;
    const std::string path =
        std::string(kRepoRoot) + "/scenarios/" + name + ".json";
    EXPECT_EQ(ReadFile(path), scenario::ScenarioToJson(*pack) + "\n")
        << path << " is stale; regenerate with `hivesim scenario "
        << "--dump-builtin " << name << "`";
  }
}

// --- Preset compilation == the legacy in-code schedules ---------------

TEST(ScenarioPresets, WanDegradeMatchesLegacySchedule) {
  auto pack = scenario::BuiltinScenario("wan-degrade");
  ASSERT_TRUE(pack.ok());
  const double duration = 2 * kHour;
  auto compiled = scenario::Compile(*pack, TwoSiteFleet(), duration);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const faults::WanEvent want{net::kGcUs,      net::kGcEu, 0.25 * duration,
                              0.25 * duration, 0.10,       MsToSec(100)};
  ASSERT_EQ(compiled->wan_events.size(), 1u);
  const auto& got = compiled->wan_events[0];
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(got.start_sec, want.start_sec);
  EXPECT_EQ(got.duration_sec, want.duration_sec);
  EXPECT_EQ(got.bandwidth_factor, want.bandwidth_factor);
  EXPECT_EQ(got.extra_rtt_sec, want.extra_rtt_sec);
  EXPECT_TRUE(compiled->crashes.empty());
  EXPECT_TRUE(compiled->crash_storms.empty());
  EXPECT_TRUE(compiled->spot_storms.empty());
}

TEST(ScenarioPresets, PartitionMatchesLegacyOnMultiSiteFleet) {
  auto pack = scenario::BuiltinScenario("partition");
  ASSERT_TRUE(pack.ok());
  const double duration = 2 * kHour;
  auto compiled = scenario::Compile(*pack, TwoSiteFleet(), duration);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->wan_events.size(), 1u);
  const auto& got = compiled->wan_events[0];
  EXPECT_EQ(got.a, net::kGcUs);
  EXPECT_EQ(got.b, net::kGcEu);
  EXPECT_EQ(got.start_sec, 0.5 * duration);
  EXPECT_EQ(got.duration_sec, 0.125 * duration);
  EXPECT_EQ(got.bandwidth_factor, 0.0);
  EXPECT_EQ(got.extra_rtt_sec, 0.0);
}

TEST(ScenarioPresets, PartitionFallsBackToDegradeOnSingleSiteFleet) {
  auto pack = scenario::BuiltinScenario("partition");
  ASSERT_TRUE(pack.ok());
  const double duration = 2 * kHour;
  auto compiled = scenario::Compile(*pack, SingleSiteFleet(), duration);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->wan_events.size(), 1u);
  const auto& got = compiled->wan_events[0];
  EXPECT_EQ(got.a, net::kGcUs);
  EXPECT_EQ(got.b, net::kGcUs);
  EXPECT_EQ(got.start_sec, 0.5 * duration);
  EXPECT_EQ(got.duration_sec, 0.125 * duration);
  EXPECT_EQ(got.bandwidth_factor, 0.10);
  EXPECT_EQ(got.extra_rtt_sec, MsToSec(100));
}

TEST(ScenarioPresets, ChurnMatchesLegacySchedule) {
  auto pack = scenario::BuiltinScenario("churn");
  ASSERT_TRUE(pack.ok());
  const double duration = 2 * kHour;
  auto compiled = scenario::Compile(*pack, TwoSiteFleet(), duration);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->crash_storms.size(), 1u);
  const auto& storm = compiled->crash_storms[0];
  // Legacy churn: every member but the first, min(2, n) crashes,
  // restart after 10 minutes, window [0.4, 0.6) of the run.
  EXPECT_EQ(storm.nodes, (std::vector<net::NodeId>{2, 3, 4}));
  EXPECT_EQ(storm.start_sec, 0.4 * duration);
  EXPECT_EQ(storm.duration_sec, 0.2 * duration);
  EXPECT_EQ(storm.crashes, 2);
  EXPECT_EQ(storm.restart_after_sec, 600);
}

// --- Compile semantics for the new phenomena --------------------------

TEST(ScenarioCompile, ContentionSharesBandwidthEqually) {
  scenario::ScenarioPack pack;
  pack.name = "contention";
  scenario::ContentionSpec spec;
  spec.a = {"$site0"};
  spec.b = {"$site1"};
  spec.window = {0.25, 0.5, /*frac=*/true};
  spec.jobs = 4;
  pack.contention.push_back(spec);
  auto compiled = scenario::Compile(pack, TwoSiteFleet(), 1000);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->wan_events.size(), 1u);
  EXPECT_EQ(compiled->wan_events[0].bandwidth_factor, 0.25);
  EXPECT_EQ(compiled->wan_events[0].start_sec, 250);
  EXPECT_EQ(compiled->wan_events[0].duration_sec, 500);
}

TEST(ScenarioCompile, DiurnalWanSkipsFactorOneHoursAndWraps) {
  scenario::ScenarioPack pack;
  pack.name = "diurnal";
  scenario::DiurnalWanSpec spec;
  spec.a = {"$site0"};
  spec.b = {"$site1"};
  spec.hourly_bandwidth_factor = {1.0, 0.5};
  pack.diurnal_wan.push_back(spec);
  // 3.5 hours: hours 0,1,2,3 -> factors 1, 0.5, 1, 0.5 -> two windows.
  auto compiled = scenario::Compile(pack, TwoSiteFleet(), 3.5 * kHour);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->wan_events.size(), 2u);
  EXPECT_EQ(compiled->wan_events[0].start_sec, 1 * kHour);
  EXPECT_EQ(compiled->wan_events[0].duration_sec, kHour);
  EXPECT_EQ(compiled->wan_events[0].bandwidth_factor, 0.5);
  EXPECT_EQ(compiled->wan_events[1].start_sec, 3 * kHour);
}

TEST(ScenarioCompile, ZoneStormCrashesTheZonesPeersOnly) {
  scenario::ScenarioPack pack;
  pack.name = "zone";
  scenario::ZoneStormSpec spec;
  spec.zone = net::Continent::kUs;
  spec.window = {100, 200, /*frac=*/false};
  spec.hazard_multiplier = 1.0;  // No SpotMarket needed.
  spec.crash_fraction = 0.5;
  spec.restart_after_sec = 300;
  pack.zone_storms.push_back(spec);
  auto compiled = scenario::Compile(pack, TwoSiteFleet(), 1000);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->spot_storms.empty());  // multiplier 1 elides.
  ASSERT_EQ(compiled->crash_storms.size(), 1u);
  const auto& storm = compiled->crash_storms[0];
  EXPECT_EQ(storm.nodes, (std::vector<net::NodeId>{1, 2}));  // US members.
  EXPECT_EQ(storm.crashes, 1);  // round(0.5 * 2).
  EXPECT_EQ(storm.restart_after_sec, 300);
}

TEST(ScenarioCompile, SiteRefClampsPastTheLastDistinctSite) {
  scenario::ScenarioPack pack;
  pack.name = "clamp";
  scenario::WanSpec spec;
  spec.a = {"$site0"};
  spec.b = {"$site7"};
  spec.window = {0, 100, /*frac=*/false};
  spec.bandwidth_factor = 0.5;
  pack.wan.push_back(spec);
  auto compiled = scenario::Compile(pack, TwoSiteFleet(), 1000);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->wan_events.size(), 1u);
  EXPECT_EQ(compiled->wan_events[0].b, net::kGcEu);  // Clamped to last.
}

TEST(ScenarioCompile, CrashPeerOutOfRangeIsAnError) {
  scenario::ScenarioPack pack;
  pack.name = "oob";
  pack.crashes.push_back({99, 100, /*frac=*/false, -1});
  auto compiled = scenario::Compile(pack, TwoSiteFleet(), 1000);
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().ToString().find("out of range"),
            std::string::npos);
}

TEST(ScenarioCompile, EmptyFleetCompilesToNothing) {
  auto pack = scenario::BuiltinScenario("churn");
  ASSERT_TRUE(pack.ok());
  auto compiled = scenario::Compile(*pack, scenario::FleetView{}, 1000);
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(compiled->spot_storms.empty());
  EXPECT_TRUE(compiled->wan_events.empty());
  EXPECT_TRUE(compiled->crashes.empty());
  EXPECT_TRUE(compiled->crash_storms.empty());
}

// Non-finite numbers have no JSON form (the writer emits `null` for
// them), so the reader may not accept one: a pack that parses must
// survive parse -> serialize -> parse.
TEST(ScenarioNonFinite, JsonRejectsNonFiniteNumbers) {
  const std::string prefix =
      R"({"schema":"hivesim-scenario/1","name":"x","wan":[{"a":"gc-us",)"
      R"("b":"gc-eu","start":0,"duration":)";
  const std::string suffix =
      R"(,"unit":"sec","bandwidth_factor":0.5,"extra_rtt_ms":0}]})";
  auto overflow = scenario::ParseScenario(prefix + "1e999" + suffix);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().ToString().find(
                StrCat("offset ", prefix.size(), ": number out of range")),
            std::string::npos)
      << overflow.status().ToString();
  auto negative = scenario::ParseScenario(prefix + "-1e999" + suffix);
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  auto finite = scenario::ParseScenario(prefix + "1e300" + suffix);
  ASSERT_TRUE(finite.ok()) << finite.status().ToString();
  const std::string bytes = scenario::ScenarioToJson(*finite);
  auto reparsed = scenario::ParseScenario(bytes);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(bytes, scenario::ScenarioToJson(*reparsed));
}

// --- The bad-pack corpus ----------------------------------------------

// Every fixture must fail to load with an InvalidArgument that names the
// file and the offending byte offset — malformed fields never crash and
// never silently become defaults. Packs are JSON only: bad-csv-form.csv
// holds a well-formed pack in the retired CSV row grammar, and must fail
// like any other non-JSON file.
TEST(ScenarioBadPacks, EveryFixtureFailsWithATaggedError) {
  namespace fs = std::filesystem;
  int seen = 0;
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(kFixtureDir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    ++seen;
    auto pack = scenario::LoadScenarioFile(path.string());
    ASSERT_FALSE(pack.ok()) << path << " unexpectedly parsed";
    EXPECT_EQ(pack.status().code(), StatusCode::kInvalidArgument) << path;
    const std::string message = pack.status().ToString();
    EXPECT_NE(message.find(path.string()), std::string::npos)
        << path << ": error does not name the file: " << message;
    EXPECT_NE(message.find("offset "), std::string::npos)
        << path << ": untagged error: " << message;
  }
  EXPECT_GE(seen, 10) << "bad-pack corpus went missing";
}

}  // namespace
}  // namespace hivesim

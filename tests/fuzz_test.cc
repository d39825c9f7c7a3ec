// The chaos fuzzer: campaign reproducibility (same seed => same
// verdicts, same digest, byte-identical minimized reproducer files), the
// injected ordering bug found and shrunk to a handful of events, replay
// exactness, and deterministic/idempotent shrinking.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzz.h"
#include "fuzz/internal.h"
#include "net/profiles.h"

namespace hivesim {
namespace {

namespace fs = std::filesystem;

constexpr char kRepoRoot[] = HIVESIM_REPO_ROOT;

/// Fast fuzz options: short worlds keep the double-run oracles cheap.
fuzz::FuzzOptions FastOptions(uint64_t seed) {
  fuzz::FuzzOptions options;
  options.seed = seed;
  options.sim_duration_sec = 480;
  options.target_batch_size = 4096;
  return options;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::map<std::string, std::string> DirContents(const std::string& dir) {
  std::map<std::string, std::string> contents;
  if (!fs::exists(dir)) return contents;
  for (const auto& entry : fs::directory_iterator(dir)) {
    contents[entry.path().filename().string()] =
        ReadFile(entry.path().string());
  }
  return contents;
}

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

// --- Generation -------------------------------------------------------

TEST(FuzzGenerate, SameSeedSameCase) {
  const fuzz::FuzzOptions options = FastOptions(11);
  for (int i = 0; i < 8; ++i) {
    const fuzz::FuzzCase a = fuzz::GenerateCase(options, i);
    const fuzz::FuzzCase b = fuzz::GenerateCase(options, i);
    EXPECT_EQ(a.fleet_spec, b.fleet_spec);
    EXPECT_EQ(a.world_seed, b.world_seed);
    EXPECT_EQ(scenario::ScenarioToJson(a.pack),
              scenario::ScenarioToJson(b.pack));
  }
}

TEST(FuzzGenerate, WorldSeedsSurviveTheJsonNumberRoundTrip) {
  // Reproducer packs store the world seed as a JSON number; the strict
  // parser rejects anything past the 52-bit integer-exact range (the
  // first fuzz campaign caught a generator emitting full 64-bit seeds
  // whose own reproducers then refused to load).
  const fuzz::FuzzOptions options = FastOptions(0xffffffffffffffffULL);
  for (int i = 0; i < 32; ++i) {
    const fuzz::FuzzCase fuzz_case = fuzz::GenerateCase(options, i);
    EXPECT_LT(fuzz_case.world_seed, uint64_t{1} << 52) << i;
  }
}

// --- The find -> shrink -> replay pipeline ----------------------------

// The generator keeps its own ordered site list (the order feeds the
// pinned digest); every entry must still name a site of the shared alias
// table, on the continent the standard world puts it.
TEST(FuzzGenerate, SitesAreSharedAliasesOnTheirContinents) {
  const net::Topology world = net::StandardWorld();
  for (const fuzz::internal::SiteChoice& site : fuzz::internal::kSites) {
    const auto it = net::SiteAliases().find(site.alias);
    ASSERT_NE(it, net::SiteAliases().end()) << site.alias;
    EXPECT_EQ(world.site(it->second).continent, site.continent)
        << site.alias;
  }
}

TEST(FuzzPipeline, InjectedOrderingBugIsFoundAndShrunkSmall) {
  // Seed 2 is known to generate cases mixing a full partition with a
  // crash — the shape the injected test bug perturbs.
  fuzz::FuzzOptions options = FastOptions(2);
  options.runs = 10;
  options.max_events = 8;
  options.inject_ordering_bug = true;
  TempDir dir("hivesim_fuzz_injected");
  options.repro_dir = dir.path;

  auto result = fuzz::RunCampaign(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->failures, 1) << "injected bug not found";
  ASSERT_EQ(result->repro_files.size(),
            static_cast<size_t>(result->failures));
  for (const std::string& oracle : result->failure_oracles) {
    EXPECT_EQ(oracle, "chaos-fingerprint");
  }
  for (const std::string& file : result->repro_files) {
    auto pack = scenario::LoadScenarioFile(file);
    ASSERT_TRUE(pack.ok()) << pack.status().ToString();
    EXPECT_LE(pack->NumEvents(), 5u) << file << " not minimized";
    ASSERT_TRUE(pack->repro.present);
    EXPECT_EQ(pack->repro.oracle, "chaos-fingerprint");
    // The minimized pack must still hold the bug's trigger shape.
    EXPECT_TRUE(fuzz::internal::PackHasFullPartition(*pack));
    EXPECT_TRUE(fuzz::internal::PackHasCrash(*pack));

    // Replay exactness: with the injection the reproducer still fails
    // the same oracle; without it ("bug fixed") it passes.
    auto failing = fuzz::ReplayScenarioFile(file, options);
    ASSERT_TRUE(failing.ok()) << failing.status().ToString();
    EXPECT_TRUE(failing->ran);
    EXPECT_FALSE(failing->ok);
    EXPECT_EQ(failing->oracle, "chaos-fingerprint");
    fuzz::FuzzOptions fixed = options;
    fixed.inject_ordering_bug = false;
    auto passing = fuzz::ReplayScenarioFile(file, fixed);
    ASSERT_TRUE(passing.ok()) << passing.status().ToString();
    EXPECT_TRUE(passing->ran);
    EXPECT_TRUE(passing->ok) << passing->oracle << ": " << passing->detail;
  }
}

TEST(FuzzPipeline, CampaignsAreReproducible) {
  fuzz::FuzzOptions options = FastOptions(2);
  options.runs = 6;
  options.max_events = 8;
  options.inject_ordering_bug = true;
  TempDir dir_a("hivesim_fuzz_repro_a");
  TempDir dir_b("hivesim_fuzz_repro_b");

  options.repro_dir = dir_a.path;
  auto a = fuzz::RunCampaign(options);
  ASSERT_TRUE(a.ok());
  options.repro_dir = dir_b.path;
  auto b = fuzz::RunCampaign(options);
  ASSERT_TRUE(b.ok());

  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->failures, b->failures);
  EXPECT_EQ(a->failure_oracles, b->failure_oracles);
  // Byte-identical minimized reproducer files.
  EXPECT_EQ(DirContents(dir_a.path), DirContents(dir_b.path));
}

TEST(FuzzPipeline, CleanCampaignFindsNothing) {
  fuzz::FuzzOptions options = FastOptions(7);
  options.runs = 3;
  auto result = fuzz::RunCampaign(options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->failures, 0);
  EXPECT_EQ(result->cases, 3);
  EXPECT_FALSE(result->truncated);
}

// --- Shrinking --------------------------------------------------------

TEST(FuzzShrink, IsIdempotentAndDeterministic) {
  // A synthetic oracle independent of world execution: "fails" while the
  // pack still has a full partition and a crash — the injected bug's
  // trigger, evaluated structurally so this test stays fast.
  const fuzz::OracleFn still_fails = [](const scenario::ScenarioPack& pack) {
    return fuzz::internal::PackHasFullPartition(pack) &&
           fuzz::internal::PackHasCrash(pack);
  };
  fuzz::FuzzOptions options = FastOptions(2);
  options.max_events = 8;
  int shrunk_cases = 0;
  for (int i = 0; i < 24; ++i) {
    const fuzz::FuzzCase fuzz_case = fuzz::GenerateCase(options, i);
    if (!still_fails(fuzz_case.pack)) continue;
    ++shrunk_cases;
    const scenario::ScenarioPack once =
        fuzz::ShrinkPack(fuzz_case.pack, still_fails);
    const scenario::ScenarioPack again =
        fuzz::ShrinkPack(fuzz_case.pack, still_fails);
    const scenario::ScenarioPack twice = fuzz::ShrinkPack(once, still_fails);
    EXPECT_EQ(scenario::ScenarioToJson(once), scenario::ScenarioToJson(again))
        << "shrinking is not deterministic (case " << i << ")";
    EXPECT_EQ(scenario::ScenarioToJson(once), scenario::ScenarioToJson(twice))
        << "shrinking is not idempotent (case " << i << ")";
    // Minimal for this oracle: one partition window, one crash source.
    EXPECT_LE(once.NumEvents(), 2u);
    EXPECT_TRUE(still_fails(once));
  }
  EXPECT_GE(shrunk_cases, 1) << "no generated case had the trigger shape";
}

TEST(FuzzShrink, PassingPackIsReturnedUntouched) {
  fuzz::FuzzOptions options = FastOptions(3);
  const fuzz::FuzzCase fuzz_case = fuzz::GenerateCase(options, 0);
  const fuzz::OracleFn never_fails =
      [](const scenario::ScenarioPack&) { return false; };
  EXPECT_EQ(scenario::ScenarioToJson(
                fuzz::ShrinkPack(fuzz_case.pack, never_fails)),
            scenario::ScenarioToJson(fuzz_case.pack));
}

// --- Replay of the committed regression scenarios ---------------------

// Every pack under tests/scenarios/ documents a *fixed* bug: it must
// load, carry its repro context, and replay clean. (`scripts/ci.sh`
// replays them through the CLI as well.)
TEST(FuzzReplay, CommittedRegressionScenariosReplayClean) {
  const std::string dir = std::string(kRepoRoot) + "/tests/scenarios";
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 1u) << "no committed regression scenarios";
  for (const std::string& path : paths) {
    auto verdict = fuzz::ReplayScenarioFile(path, fuzz::FuzzOptions{});
    ASSERT_TRUE(verdict.ok()) << path << ": " << verdict.status().ToString();
    EXPECT_TRUE(verdict->ran) << path << " was rejected: " << verdict->detail;
    EXPECT_TRUE(verdict->ok)
        << path << " fails oracle " << verdict->oracle << ": "
        << verdict->detail;
  }
}

TEST(FuzzReplay, PackWithoutReproSectionIsRejected) {
  const std::string path =
      std::string(kRepoRoot) + "/scenarios/partition.json";
  auto verdict = fuzz::ReplayScenarioFile(path, fuzz::FuzzOptions{});
  EXPECT_FALSE(verdict.ok());
  EXPECT_NE(verdict.status().ToString().find("repro"), std::string::npos);
}

// --- Campaign plumbing ------------------------------------------------

TEST(FuzzCampaign, RejectsNonsenseOptions) {
  fuzz::FuzzOptions options;
  options.runs = 0;
  EXPECT_FALSE(fuzz::RunCampaign(options).ok());
  options = fuzz::FuzzOptions{};
  options.max_events = 0;
  EXPECT_FALSE(fuzz::RunCampaign(options).ok());
  options = fuzz::FuzzOptions{};
  options.sim_duration_sec = 0;
  EXPECT_FALSE(fuzz::RunCampaign(options).ok());
}

}  // namespace
}  // namespace hivesim

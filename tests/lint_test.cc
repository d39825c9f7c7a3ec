// Tests for hivesim-lint (tools/lint): every rule fires on its seeded
// fixture with the exact diagnostic text, every suppressed variant
// passes, pragma hygiene is itself linted, and the real repository's
// module layering stays clean under the declared DAG.
//
// Fixtures live in tests/lint_fixtures/repo, a miniature repository
// (src/ modules with CMakeLists + a cases/ directory of seeded
// violations). The analyzer is exercised through the same RunLint
// entry point `hivesim lint` uses.

#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/strings.h"
#include "gtest/gtest.h"
#include "lint/layering.h"
#include "lint/lexer.h"

namespace hivesim::lint {
namespace {

constexpr char kFixtureRepo[] = HIVESIM_LINT_FIXTURE_DIR;
constexpr char kRepoRoot[] = HIVESIM_REPO_ROOT;

/// The fixture repo's declared module DAG (mirrors the real config's
/// shape: every directory under src/ must be declared).
LintConfig FixtureConfig() {
  LintConfig config;
  config.module_dag = {
      {"common", {}},       {"alpha", {}},        {"beta", {"alpha"}},
      {"gamma", {"alpha"}}, {"delta", {}},
  };
  return config;
}

LintReport RunOn(const std::vector<std::string>& files,
                 bool check_layering = false,
                 const LintConfig& config = LintConfig()) {
  LintOptions options;
  options.repo_root = kFixtureRepo;
  options.extra_files = files;
  options.check_layering = check_layering;
  options.config = config;
  auto report = RunLint(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : LintReport{};
}

// ---- Lexer ----------------------------------------------------------

TEST(LintLexer, DistinguishesCodeFromStringsAndComments) {
  const LexedFile lex = Lex(
      "int x = rand();  // rand() in a comment\n"
      "const char* s = \"rand() in a string\";\n");
  int rand_idents = 0;
  int strings = 0;
  for (const Token& tok : lex.tokens) {
    if (tok.kind == TokKind::kIdentifier && tok.text == "rand") ++rand_idents;
    if (tok.kind == TokKind::kString) ++strings;
  }
  EXPECT_EQ(rand_idents, 1);  // Only the call on line 1.
  EXPECT_EQ(strings, 1);
  EXPECT_TRUE(lex.pragmas.empty());
}

TEST(LintLexer, ParsesWellFormedPragma) {
  const LexedFile lex =
      Lex("// hivesim-lint: allow(D2) reason=operator-facing timer\n");
  ASSERT_EQ(lex.pragmas.size(), 1u);
  EXPECT_FALSE(lex.pragmas[0].malformed);
  EXPECT_EQ(lex.pragmas[0].rule, "D2");
  EXPECT_EQ(lex.pragmas[0].reason, "operator-facing timer");
  EXPECT_EQ(lex.pragmas[0].line, 1);
}

TEST(LintLexer, PragmaWithoutReasonIsMalformed) {
  const LexedFile lex = Lex("// hivesim-lint: allow(D1)\n");
  ASSERT_EQ(lex.pragmas.size(), 1u);
  EXPECT_TRUE(lex.pragmas[0].malformed);
}

TEST(LintLexer, MidSentenceMentionIsNotAPragma) {
  const LexedFile lex =
      Lex("// suppress with `hivesim-lint: allow(D1) reason=...` pragmas\n");
  EXPECT_TRUE(lex.pragmas.empty());
}

TEST(LintLexer, RecordsQuotedIncludes) {
  const LexedFile lex =
      Lex("#include \"common/json.h\"\n#include <random>\n");
  ASSERT_EQ(lex.quoted_includes.size(), 1u);
  EXPECT_EQ(lex.quoted_includes[0], "common/json.h");
}

// ---- D1: entropy ----------------------------------------------------

TEST(LintRules, D1FlagsEveryEntropySource) {
  const LintReport report = RunOn({"cases/d1_entropy.cc"});
  ASSERT_EQ(report.diagnostics.size(), 3u);
  const Diagnostic& first = report.diagnostics[0];
  EXPECT_EQ(first.file, "cases/d1_entropy.cc");
  EXPECT_EQ(first.line, 6);
  EXPECT_EQ(first.rule, "D1");
  EXPECT_EQ(first.message,
            "nondeterministic entropy source 'random_device'; draw from "
            "the seeded hivesim::Rng (common/rng.h)");
  EXPECT_EQ(report.diagnostics[1].line, 7);
  EXPECT_EQ(report.diagnostics[1].message,
            "nondeterministic entropy source 'rand'; draw from the seeded "
            "hivesim::Rng (common/rng.h)");
  EXPECT_EQ(report.diagnostics[2].line, 8);
  EXPECT_EQ(report.diagnostics[2].message,
            "nondeterministic entropy source 'srand'; draw from the seeded "
            "hivesim::Rng (common/rng.h)");
  EXPECT_EQ(ExitCode(report), 1);
}

TEST(LintRules, D1SuppressedWithReasonPasses) {
  const LintReport report = RunOn({"cases/d1_suppressed.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
  EXPECT_EQ(ExitCode(report), 0);
}

// ---- D2: wall clock -------------------------------------------------

TEST(LintRules, D2FlagsClockTypeAndLibcCall) {
  const LintReport report = RunOn({"cases/d2_wallclock.cc"});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 6);
  EXPECT_EQ(report.diagnostics[0].rule, "D2");
  EXPECT_EQ(report.diagnostics[0].message,
            "wall-clock read 'system_clock'; simulation logic uses "
            "sim::Simulator::Now(), host timing goes through "
            "hivesim::HostClock (common/host_clock.h)");
  EXPECT_EQ(report.diagnostics[1].line, 8);
  EXPECT_EQ(report.diagnostics[1].message,
            "wall-clock read 'time'; simulation logic uses "
            "sim::Simulator::Now(), host timing goes through "
            "hivesim::HostClock (common/host_clock.h)");
}

TEST(LintRules, D2SameLinePragmaSuppresses) {
  const LintReport report = RunOn({"cases/d2_suppressed.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- D3: unordered iteration reaching emission ----------------------

TEST(LintRules, D3FlagsHashOrderIterationInEmitterFile) {
  const LintReport report = RunOn({"cases/d3_unordered_emit.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 11);
  EXPECT_EQ(report.diagnostics[0].rule, "D3");
  EXPECT_EQ(report.diagnostics[0].message,
            "range-for over unordered container 'counts' in 'EmitCounts', "
            "which reaches emission (EmitCounts -> JsonWriter); emit in "
            "sorted key order instead");
}

TEST(LintRules, D3SortedWrapperPasses) {
  const LintReport report = RunOn({"cases/d3_sorted_ok.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

TEST(LintRules, D3QuietOutsideEmissionReach) {
  const LintReport report = RunOn({"cases/d3_no_emission.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

/// The old heuristic's false-negative direction: the iterating file
/// never includes an emitter header, but its function calls a helper
/// in another TU whose body emits. Only the cross-TU call graph sees
/// the two-hop path, and the witness names every hop.
TEST(LintRules, D3CrossTuReachabilityFires) {
  const LintReport report =
      RunOn({"cases/d3_cross_tu.cc", "cases/d3_cross_tu_helper.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].file, "cases/d3_cross_tu.cc");
  EXPECT_EQ(report.diagnostics[0].line, 12);
  EXPECT_EQ(report.diagnostics[0].rule, "D3");
  EXPECT_EQ(report.diagnostics[0].message,
            "range-for over unordered container 'counts' in 'Aggregate', "
            "which reaches emission (Aggregate -> WriteSummary -> "
            "JsonWriter); emit in sorted key order instead");
}

/// Same file without its callee in the scanned set: the call graph has
/// no edge to a sink, so nothing fires — reachability is evidence, not
/// a guess.
TEST(LintRules, D3CrossTuQuietWithoutCallee) {
  const LintReport report = RunOn({"cases/d3_cross_tu.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

/// The old heuristic's false-positive direction: the file includes the
/// emitter header and one function emits, but the *iterating* function
/// never reaches emission. File-level evidence flagged this loop; the
/// function-level call graph keeps it clean.
TEST(LintRules, D3HeaderIncludeAloneDoesNotFire) {
  const LintReport report = RunOn({"cases/d3_header_only.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- D5: floating-point reduction over hash order -------------------

TEST(LintRules, D5FlagsFloatAccumulationWithoutEmission) {
  const LintReport report = RunOn({"cases/d5_float_accum.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].line, 10);
  EXPECT_EQ(report.diagnostics[0].rule, "D5");
  EXPECT_EQ(report.diagnostics[0].message,
            "range-for over unordered container 'weights' accumulates "
            "into floating-point 'total'; hash order picks the "
            "(non-associative) reduction order, so the value is "
            "nondeterministic — reduce in sorted key order");
}

TEST(LintRules, D5SuppressedWithReasonPasses) {
  const LintReport report = RunOn({"cases/d5_suppressed.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- C1: concurrency annotations ------------------------------------

TEST(LintRules, C1FlagsUnannotatedMutexAndAtomic) {
  const LintReport report = RunOn({"cases/c1_unannotated.cc"});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 12);
  EXPECT_EQ(report.diagnostics[0].rule, "C1");
  EXPECT_EQ(report.diagnostics[0].message,
            "mutex 'mu_' declares no lock-order story; add "
            "HIVESIM_ACQUIRED_BEFORE/_AFTER edges or "
            "HIVESIM_LOCK_ORDER_ROOT (common/thread_annotations.h)");
  EXPECT_EQ(report.diagnostics[1].line, 13);
  EXPECT_EQ(report.diagnostics[1].rule, "C1");
  EXPECT_EQ(report.diagnostics[1].message,
            "std::atomic 'hits_' declares no concurrency contract; add "
            "HIVESIM_GUARDED_BY(mu) or mark it HIVESIM_ATOMIC_LOCK_FREE "
            "with the ordering documented (common/thread_annotations.h)");
}

TEST(LintRules, C1AnnotatedDeclarationsPass) {
  const LintReport report = RunOn({"cases/c1_annotated.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

TEST(LintRules, C1LockOrderCycleIsDetected) {
  const LintReport report = RunOn({"cases/c1_lock_cycle.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].file, "lock-order DAG");
  EXPECT_EQ(report.diagnostics[0].rule, "C1");
  EXPECT_EQ(report.diagnostics[0].message,
            "declared lock acquisition order has a cycle: "
            "Pipeline::ingest_mu_ -> Pipeline::publish_mu_ -> "
            "Pipeline::ingest_mu_; no consistent order exists, so the "
            "protocol can deadlock — fix the HIVESIM_ACQUIRED_AFTER/"
            "_BEFORE declarations");
  EXPECT_EQ(ExitCode(report), 1);
}

// ---- S1: discarded Status/Result ------------------------------------

TEST(LintRules, S1FlagsBothDiscardSpellings) {
  const LintReport report = RunOn({"cases/s1_discard.cc"});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 7);
  EXPECT_EQ(report.diagnostics[0].rule, "S1");
  EXPECT_EQ(report.diagnostics[0].message,
            "'(void)' discards the Status/Result of 'SaveCheckpoint'; "
            "handle the error, or keep the discard audited with "
            "'// hivesim-lint: allow(S1) reason=<why dropping the error "
            "is safe>'");
  EXPECT_EQ(report.diagnostics[1].line, 8);
  EXPECT_EQ(report.diagnostics[1].rule, "S1");
}

TEST(LintRules, S1SuppressedWithReasonPasses) {
  const LintReport report = RunOn({"cases/s1_suppressed.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- D4: pointer identity -------------------------------------------

TEST(LintRules, D4FlagsFormattingAndHashingPointers) {
  const LintReport report = RunOn({"cases/d4_pointer.cc"});
  ASSERT_EQ(report.diagnostics.size(), 4u);
  // Line 9 carries two findings: the %p format and the void* cast.
  EXPECT_EQ(report.diagnostics[0].line, 9);
  EXPECT_EQ(report.diagnostics[0].message,
            "cast to void* (pointer formatting); pointer values are "
            "nondeterministic across runs");
  EXPECT_EQ(report.diagnostics[1].line, 9);
  EXPECT_EQ(report.diagnostics[1].message,
            std::string("format string contains '") + "%" +
                "p'; pointer values are nondeterministic across runs");
  EXPECT_EQ(report.diagnostics[2].line, 10);
  EXPECT_EQ(report.diagnostics[2].message,
            "std::hash over a pointer type; pointer identity is "
            "nondeterministic across runs");
  EXPECT_EQ(report.diagnostics[3].line, 11);
  EXPECT_EQ(report.diagnostics[3].message,
            "reinterpret_cast of a pointer to an integer; pointer values "
            "must not be hashed, ordered, or printed");
}

TEST(LintRules, D4SuppressedOnPrecedingLinePasses) {
  const LintReport report = RunOn({"cases/d4_suppressed.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- P1: pragma hygiene ---------------------------------------------

TEST(LintRules, P1MalformedAndStalePragmas) {
  const LintReport report = RunOn({"cases/p1_bad_pragma.cc"});
  ASSERT_EQ(report.diagnostics.size(), 3u);
  EXPECT_EQ(report.diagnostics[0].line, 5);
  EXPECT_EQ(report.diagnostics[0].rule, "P1");
  EXPECT_EQ(report.diagnostics[0].message,
            "malformed hivesim-lint pragma: missing 'reason=' (every "
            "suppression must say why); grammar is 'hivesim-lint: "
            "allow(<rule>) reason=<why>'");
  // The malformed pragma suppresses nothing: the D1 underneath fires.
  EXPECT_EQ(report.diagnostics[1].line, 6);
  EXPECT_EQ(report.diagnostics[1].rule, "D1");
  EXPECT_EQ(report.diagnostics[2].line, 7);
  EXPECT_EQ(report.diagnostics[2].rule, "P1");
  EXPECT_EQ(report.diagnostics[2].message,
            "unused suppression for rule 'D2': no matching diagnostic on "
            "this or the next line; delete the stale pragma");
}

// ---- U1: library code no shipped entry point reaches ----------------

/// Runs U1 over the u1/ fixture tree: u1/tools/ is the entry point,
/// u1/src/ the library, u1/tests/ a test that is not an entry point.
LintReport RunU1(std::vector<std::string> files) {
  LintConfig config;
  config.library_dir = "u1/src";
  LintOptions options;
  options.repo_root = kFixtureRepo;
  options.extra_files = std::move(files);
  options.check_layering = false;
  options.entry_roots = {"u1/tools"};
  options.config = config;
  auto report = RunLint(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : LintReport{};
}

TEST(LintRules, U1FlagsClassOnlyATestConstructs) {
  const LintReport report =
      RunU1({"u1/src/pump.cc", "u1/tests/pump_test.cc"});
  ASSERT_EQ(report.diagnostics.size(), 2u) << FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].file, "u1/src/pump.cc");
  EXPECT_EQ(report.diagnostics[0].line, 11);
  EXPECT_EQ(report.diagnostics[0].rule, "U1");
  EXPECT_EQ(report.diagnostics[0].message,
            "'TestOnlyPump::Start' is not reached from any shipped entry "
            "point (u1/tools/); delete it, or name its consumer in "
            "'hivesim-lint: allow(U1) reason=<why>'");
  EXPECT_EQ(report.diagnostics[1].line, 12);
  EXPECT_NE(report.diagnostics[1].message.find("'TestOnlyPump::Stop'"),
            std::string::npos);
}

TEST(LintRules, U1FollowsVirtualDispatchToConstructedClasses) {
  const LintReport report = RunU1({"u1/src/policy.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u) << FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].line, 23);
  EXPECT_NE(report.diagnostics[0].message.find("'UnusedPolicy::Decide'"),
            std::string::npos);
}

TEST(LintRules, U1FollowsFunctionPointersAndStdFunctions) {
  const LintReport report = RunU1({"u1/src/callbacks.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

TEST(LintRules, U1FollowsFileScopeTables) {
  const LintReport report = RunU1({"u1/src/table.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

TEST(LintRules, U1AllowPragmaNeedsAReason) {
  EXPECT_TRUE(RunU1({"u1/src/allowed.cc"}).diagnostics.empty());
  const LintReport report = RunU1({"u1/src/no_reason.cc"});
  ASSERT_EQ(report.diagnostics.size(), 2u) << FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].line, 7);
  EXPECT_EQ(report.diagnostics[0].rule, "P1");
  EXPECT_EQ(report.diagnostics[1].line, 8);
  EXPECT_EQ(report.diagnostics[1].rule, "U1");
}

/// The survivor simple-name linking let through: a dead member of a live
/// class whose name shipped code calls on another class's typed local.
TEST(LintRules, U1LinksTypedReceiversToTheirClass) {
  const LintReport report = RunU1({"u1/src/csv.cc"});
  ASSERT_EQ(report.diagnostics.size(), 1u) << FormatReport(report);
  EXPECT_EQ(report.diagnostics[0].line, 12);
  EXPECT_NE(report.diagnostics[0].message.find("'Recorder::ToCsv'"),
            std::string::npos);
}

/// Without entry roots U1 is off: the fixture rules above stay exact.
TEST(LintRules, U1OffWithoutEntryRoots) {
  const LintReport report = RunOn({"u1/src/pump.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
}

// ---- K1: knobs shipped code never varies ----------------------------

/// Runs K1 over the k1/ fixture tree: k1/tools/ is the entry point,
/// k1/src/knobs.h the library, k1/tests/ a test that is not shipped.
LintReport RunK1() {
  LintConfig config;
  config.library_dir = "k1/src";
  LintOptions options;
  options.repo_root = kFixtureRepo;
  options.extra_files = {"k1/src/knobs.h", "k1/tests/knobs_test.cc"};
  options.check_layering = false;
  options.entry_roots = {"k1/tools"};
  options.config = config;
  auto report = RunLint(options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : LintReport{};
}

/// The K1 diagnostics naming `knob` ("Struct::field").
std::vector<Diagnostic> K1For(const LintReport& report,
                              const std::string& knob) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.rule == "K1" &&
        diag.message.find(StrCat("'", knob, "'")) != std::string::npos) {
      out.push_back(diag);
    }
  }
  return out;
}

TEST(LintRules, K1FlagsFieldNoShippedCodeWrites) {
  const LintReport report = RunK1();
  EXPECT_EQ(report.diagnostics.size(), 2u) << FormatReport(report);
  const auto found = K1For(report, "UnwrittenConfig::unwritten");
  ASSERT_EQ(found.size(), 1u) << FormatReport(report);
  EXPECT_EQ(found[0].file, "k1/src/knobs.h");
  EXPECT_EQ(found[0].line, 12);
  EXPECT_EQ(found[0].message,
            "'UnwrittenConfig::unwritten' is never written by shipped code "
            "(k1/tools/); make it a named constant, or name its callers in "
            "'hivesim-lint: allow(K1) reason=<why>'");
  // Its sibling is set from the tool's arguments.
  EXPECT_TRUE(K1For(report, "UnwrittenConfig::rounds").empty());
}

TEST(LintRules, K1FlagsFieldEveryShippedWriterSetsToOneLiteral) {
  const auto found = K1For(RunK1(), "SameLiteralOptions::same");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].line, 17);
  EXPECT_EQ(found[0].message,
            "'SameLiteralOptions::same' is set to 8 by every shipped write "
            "(2 in k1/tools/); make it a named constant, or name its callers "
            "in 'hivesim-lint: allow(K1) reason=<why>'");
}

TEST(LintRules, K1PassesFieldSetToTwoLiterals) {
  EXPECT_TRUE(K1For(RunK1(), "TwoLiteralRequest::varied").empty());
}

TEST(LintRules, K1CountsPositionalInitializerAsWritingEveryField) {
  const LintReport report = RunK1();
  EXPECT_TRUE(K1For(report, "PositionalSpec::rows").empty());
  EXPECT_TRUE(K1For(report, "PositionalSpec::cols").empty());
}

TEST(LintRules, K1AllowPragmaSuppresses) {
  EXPECT_TRUE(K1For(RunK1(), "AllowedConfig::reserved").empty());
}

// ---- Clean pass -----------------------------------------------------

TEST(LintRules, CleanFixturePasses) {
  const LintReport report = RunOn({"cases/clean.cc"});
  EXPECT_TRUE(report.diagnostics.empty()) << FormatReport(report);
  EXPECT_EQ(report.files_scanned, 1);
  EXPECT_EQ(ExitCode(report), 0);
}

TEST(LintRules, AllSeededViolationFixturesFail) {
  for (const char* fixture :
       {"cases/d1_entropy.cc", "cases/d2_wallclock.cc",
        "cases/d3_unordered_emit.cc", "cases/d4_pointer.cc",
        "cases/d5_float_accum.cc", "cases/c1_unannotated.cc",
        "cases/c1_lock_cycle.cc", "cases/s1_discard.cc",
        "cases/p1_bad_pragma.cc"}) {
    const LintReport report = RunOn({fixture});
    EXPECT_EQ(ExitCode(report), 1) << fixture << " should fail lint";
  }
}

// ---- L1: layering ---------------------------------------------------

TEST(LintLayering, FlagsUndeclaredIncludeAndLinkEdges) {
  const LintReport report = RunOn({}, /*check_layering=*/true,
                                  FixtureConfig());
  // gamma -> beta via CMake and via include; delta -> beta include is
  // unsuppressed here because delta.cc is not lexed (its pragma only
  // applies when the file itself is scanned).
  ASSERT_EQ(report.diagnostics.size(), 3u);
  EXPECT_EQ(report.diagnostics[0].file, "src/delta/delta.cc");
  EXPECT_EQ(report.diagnostics[0].line, 4);
  EXPECT_EQ(report.diagnostics[0].message,
            "include edge delta -> beta violates the declared module DAG "
            "(delta may depend on: nothing)");
  EXPECT_EQ(report.diagnostics[1].file, "src/gamma/CMakeLists.txt");
  EXPECT_EQ(report.diagnostics[1].line, 2);
  EXPECT_EQ(report.diagnostics[1].message,
            "link edge gamma -> beta violates the declared module DAG "
            "(gamma may depend on: alpha)");
  EXPECT_EQ(report.diagnostics[2].file, "src/gamma/gamma.cc");
  EXPECT_EQ(report.diagnostics[2].line, 4);
  EXPECT_EQ(report.diagnostics[2].message,
            "include edge gamma -> beta violates the declared module DAG "
            "(gamma may depend on: alpha)");
}

TEST(LintLayering, AnnotatedIncludeSuppressedWhenFileIsScanned) {
  const LintReport report = RunOn({"src/delta/delta.cc"},
                                  /*check_layering=*/true, FixtureConfig());
  for (const Diagnostic& diag : report.diagnostics) {
    EXPECT_NE(diag.file, "src/delta/delta.cc") << FormatReport(report);
  }
}

TEST(LintLayering, DetectsDeclaredCycle) {
  LintConfig config = FixtureConfig();
  config.module_dag["alpha"] = {"beta"};  // alpha <-> beta.
  const LintReport report = RunOn({}, /*check_layering=*/true, config);
  bool found_cycle = false;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.file == "module DAG") {
      found_cycle = true;
      EXPECT_EQ(diag.message,
                "declared module DAG has a cycle: alpha -> beta -> alpha");
    }
  }
  EXPECT_TRUE(found_cycle) << FormatReport(report);
}

TEST(LintLayering, UndeclaredModuleIsReported) {
  LintConfig config = FixtureConfig();
  config.module_dag.erase("delta");
  const LintReport report = RunOn({}, /*check_layering=*/true, config);
  bool found = false;
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.file == "src/delta" && diag.rule == "L1") {
      found = true;
      EXPECT_EQ(diag.message,
                "module 'delta' is not in the declared DAG; add it to the "
                "layering config (tools/lint/lint.h) with its dependencies");
    }
  }
  EXPECT_TRUE(found) << FormatReport(report);
}

/// The real repository's layering must stay clean under the shipped
/// DAG — this is the same check `hivesim lint` runs in CI, minus the
/// token rules (those need compile_commands.json, which other build
/// presets may not have produced yet).
TEST(LintLayering, RealRepoLayeringIsClean) {
  LintOptions options;
  options.repo_root = kRepoRoot;
  options.check_layering = true;
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->diagnostics.empty()) << FormatReport(*report);
}

/// The real repository must be clean under the *full* rule set —
/// D1-D5, C1, S1, U1, K1, P1 and the lock-order DAG — over every
/// translation unit and header. compile_commands.json may not exist for
/// this preset, so the scan set is enumerated directly: all .cc and .h
/// under src/, tools/ and bench/, the same universe CI lints (K1's
/// structs live in headers). U1 and K1 walk from the same four
/// entry-point roots as `hivesim lint`.
TEST(LintRules, RealRepoTokenRulesAreClean) {
  namespace fs = std::filesystem;
  LintOptions options;
  options.repo_root = kRepoRoot;
  options.check_layering = true;
  options.entry_roots = ShippedEntryRoots();
  for (const char* dir : {"src", "tools", "bench"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(fs::path(kRepoRoot) / dir)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".cc" && ext != ".h") continue;
      options.extra_files.push_back(
          entry.path().lexically_relative(kRepoRoot).generic_string());
    }
  }
  std::sort(options.extra_files.begin(), options.extra_files.end());
  ASSERT_FALSE(options.extra_files.empty());
  auto report = RunLint(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->diagnostics.empty()) << FormatReport(*report);
  EXPECT_EQ(ExitCode(*report), 0);
}

// ---- Report rendering -----------------------------------------------

TEST(LintReporting, FormatsFileLineRuleMessage) {
  const LintReport report = RunOn({"cases/d1_suppressed.cc",
                                   "cases/d1_entropy.cc"});
  const std::string rendered = FormatReport(report);
  EXPECT_NE(rendered.find(
                "cases/d1_entropy.cc:6: error: [D1] nondeterministic "
                "entropy source 'random_device'; draw from the seeded "
                "hivesim::Rng (common/rng.h)\n"),
            std::string::npos)
      << rendered;
  EXPECT_NE(rendered.find("2 files scanned, 3 diagnostics\n"),
            std::string::npos)
      << rendered;
}

TEST(LintReporting, JsonReportOfCleanRunIsExact) {
  const LintReport report = RunOn({"cases/clean.cc"});
  EXPECT_EQ(JsonReport(report),
            "{\"schema\":\"hivesim-lint/1\",\"files_scanned\":1,"
            "\"diagnostics\":[]}");
}

TEST(LintReporting, JsonReportCarriesEveryDiagnosticField) {
  const LintReport report = RunOn({"cases/d1_entropy.cc"});
  ASSERT_EQ(report.diagnostics.size(), 3u);
  const std::string json = JsonReport(report);
  EXPECT_NE(json.find("\"schema\":\"hivesim-lint/1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"files_scanned\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"file\":\"cases/d1_entropy.cc\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"line\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"D1\""), std::string::npos) << json;
  EXPECT_NE(json.find("nondeterministic entropy source 'random_device'"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace hivesim::lint

#ifndef HIVESIM_TOOLS_LINT_LINT_H_
#define HIVESIM_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "lint/callgraph.h"
#include "lint/lexer.h"

namespace hivesim::lint {

/// One finding. `file` is repo-relative (or the path given for extra
/// files), `rule` is the short rule id ("D1".."D5", "C1", "S1", "L1",
/// "U1", "K1", "P1") and `message` is the full human text. Diagnostics
/// compare by (file, line, rule, message) so reports are
/// deterministically ordered.
struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return message < other.message;
  }
  bool operator==(const Diagnostic& other) const {
    return file == other.file && line == other.line && rule == other.rule &&
           message == other.message;
  }
};

/// Tuning knobs; the defaults encode hivesim's invariants. Tests swap
/// in fixture trees and synthetic DAGs through the same structure.
struct LintConfig {
  /// Rule -> repo-relative path suffixes exempt from that rule. The
  /// baked-in exemptions are definitional: D1 bans entropy *outside*
  /// common/rng.h, and C1 requires the annotations that
  /// common/thread_annotations.h itself defines (its annotated Mutex
  /// wrapper holds the one std::mutex allowed to go bare).
  std::map<std::string, std::vector<std::string>> allowlist = {
      {"D1", {"common/rng.h"}},
      {"C1", {"common/thread_annotations.h"}},
  };

  /// Identifiers whose mention makes a function a direct emission
  /// sink. Reachability is then transitive over the cross-TU call
  /// graph: a function reaches emission iff it is a sink or calls one
  /// that does (see AnalyzeStructure/LinkCallGraph).
  std::set<std::string> emitter_symbols = {
      "JsonWriter",    "TableWriter",       "TraceRecorder",
      "MetricsRegistry", "CounterHandle",   "ToJson",
      "ToCsv",         "ToChromeJson",      "WriteJson",
      "WriteCsv",      "WriteChromeJson",   "Counter",
      "Gauge",         "Histogram",         "AnalysisReport",
      "AnalyzeChromeJson", "BuildRoundModel",   "PrintTable",
  };

  /// The declared module DAG: module -> direct dependencies. Both the
  /// CMake link edges and the include edges must stay inside the
  /// transitive closure of this map, and the map itself must be acyclic.
  /// Layer order (see docs/STATIC_ANALYSIS.md):
  ///   common -> telemetry -> sim/compute -> net/models ->
  ///   cloud/data/collective/baselines -> hivemind -> faults ->
  ///   scenario -> core -> fuzz
  std::map<std::string, std::set<std::string>> module_dag = {
      {"common", {}},
      {"telemetry", {"common"}},
      {"sim", {"common", "telemetry"}},
      {"compute", {"common"}},
      {"net", {"common", "sim", "telemetry"}},
      {"models", {"common", "compute"}},
      {"cloud", {"common", "compute", "net", "sim", "telemetry"}},
      {"data", {"common", "models"}},
      {"collective", {"common", "net", "models", "telemetry"}},
      {"baselines", {"common", "models"}},
      {"hivemind",
       {"common", "net", "models", "collective", "data", "telemetry"}},
      {"faults", {"common", "sim", "net", "cloud", "hivemind", "telemetry"}},
      {"scenario", {"common", "net", "faults"}},
      {"core",
       {"common", "net", "cloud", "models", "hivemind", "baselines", "faults",
        "scenario", "telemetry"}},
      {"fuzz",
       {"common", "sim", "net", "models", "hivemind", "faults", "scenario",
        "core", "telemetry"}},
  };

  /// CMake library prefix mapping module dirs to targets.
  std::string lib_prefix = "hivesim_";

  /// Rule U1's candidates: functions defined in `.cc` files under this
  /// repo-relative directory. Its headers join the call graph even
  /// when they are not scanned. Rule K1's structs live here too.
  std::string library_dir = "src";
};

/// The shipped entry points rule U1 walks from: every function defined
/// under these directories. perfbench is a separate CMake project, so
/// its sources are lexed from the tree, not from compile_commands.json.
inline const std::vector<std::string>& ShippedEntryRoots() {
  static const std::vector<std::string>& roots = *new std::vector<std::string>{
      "tools", "bench", "examples", "perfbench/cpp"};
  return roots;
}

struct LintOptions {
  /// Repository root (absolute or relative to the CWD).
  std::string repo_root = ".";
  /// compile_commands.json produced by CMake; empty to skip TU
  /// discovery (tests lint `extra_files` directly instead).
  std::string compile_commands_path;
  /// Extra files to lint verbatim (paths relative to repo_root or
  /// absolute). Used by tests to lint fixtures.
  std::vector<std::string> extra_files;
  /// Run the L1 layering check over <repo_root>/src.
  bool check_layering = true;
  /// Rule U1's entry-point directories (repo-relative); empty skips U1
  /// and K1.
  /// Their `.cc` and `.h` files join the call graph whether or not they
  /// are scanned; see ShippedEntryRoots().
  std::vector<std::string> entry_roots;
  LintConfig config;
};

struct LintReport {
  std::vector<Diagnostic> diagnostics;  ///< Sorted, deduplicated.
  int files_scanned = 0;
};

/// Process exit code for a report: 0 clean, 1 diagnostics present.
inline int ExitCode(const LintReport& report) {
  return report.diagnostics.empty() ? 0 : 1;
}

/// Runs the full analysis. Returns a Status error only for
/// environmental failures (unreadable compile_commands.json, missing
/// root); rule findings land in the report.
Result<LintReport> RunLint(const LintOptions& options);

/// Renders `file:line: error: [RULE] message` lines plus a trailing
/// summary, exactly as `hivesim lint` prints them.
std::string FormatReport(const LintReport& report);

/// Machine-readable rendering of the same report: one JSON object with
/// schema id "hivesim-lint/1", the scan count, and the sorted
/// diagnostics (`hivesim lint --json=PATH` writes this; see
/// docs/STATIC_ANALYSIS.md for the schema).
std::string JsonReport(const LintReport& report);

// ---- Internals shared with tests -------------------------------------

/// Per-file facts computed by the driver before rules run.
struct FileFacts {
  std::string path;  ///< As reported in diagnostics.
  LexedFile lex;
  /// Functions, sync declarations, and Status-returning names, with
  /// emission reachability linked across all scanned files.
  FileStructure structure;
  /// Identifiers declared as unordered containers anywhere in this
  /// file's include closure (member decls live in headers).
  std::set<std::string> unordered_names;
  /// Identifiers declared as float/double in the include closure (D5's
  /// accumulator candidates).
  std::set<std::string> float_names;
  /// Cross-TU union of Status/Result-returning function names (S1).
  std::set<std::string> status_fns;
};

/// Output of linking the per-file structures into one program view.
struct GraphLinkResult {
  /// Union of every file's status_fns.
  std::set<std::string> status_fns;
  /// Lock-order DAG cycles (rule C1, reported against the pseudo-file
  /// "lock-order DAG"; deliberately not pragma-suppressible).
  std::vector<Diagnostic> lock_order;
};

/// Links the cross-TU call graph: marks every FunctionSpan that can
/// reach an emission sink (with its witness path), unions the
/// Status-returning names, and checks the declared lock-acquisition
/// DAG for cycles. Resolution is by simple name — an over-approximation
/// (any same-named function connects), which errs toward flagging.
GraphLinkResult LinkCallGraph(
    std::vector<std::pair<std::string, FileStructure*>> files);

/// One file of the whole program rules U1 and K1 walk.
struct ProgramFile {
  std::string path;  ///< Repo-relative.
  const LexedFile* lex = nullptr;
  const FileStructure* structure = nullptr;
};

/// A node rule U1's walk reached from a shipped entry point: a function,
/// or a declaration (table, class body, macro).
struct ShippedNode {
  const ProgramFile* file = nullptr;
  const FunctionSpan* fn = nullptr;  ///< nullptr for a declaration.
  const DeclSpan* decl = nullptr;    ///< nullptr for a function.
};

struct Reachability {
  std::vector<Diagnostic> unreached;  ///< Rule U1's findings.
  std::vector<ShippedNode> shipped;   ///< Every node the walk reached.
};

/// Rule U1: every function defined in a `.cc` file under `library_dir`
/// that no function in a file under `entry_roots` reaches. `files` is
/// the whole program; see unreached.cc for the edges and the class gate.
/// The reached set is returned too: it is what rule K1 calls shipped.
Reachability CheckUnreached(const std::vector<ProgramFile>& files,
                            const std::vector<std::string>& entry_roots,
                            const std::string& library_dir);

/// Rule K1: a field of a `*Config`, `*Options`, `*Request` or `*Spec`
/// struct defined under `library_dir` that no shipped node writes, or
/// that every shipped writer sets to the same literal. See knobs.cc for
/// what counts as a write.
std::vector<Diagnostic> CheckDeadKnobs(
    const std::vector<ProgramFile>& files,
    const std::vector<ShippedNode>& shipped,
    const std::vector<std::string>& entry_roots,
    const std::string& library_dir);

/// "tools/, bench/, ..." for the entry roots, as U1 and K1 print them.
std::string EntryRootList(const std::vector<std::string>& entry_roots);

/// True when repo-relative `path` lies under directory `dir`.
bool UnderDir(const std::string& path, const std::string& dir);
bool EndsWith(const std::string& s, const std::string& suffix);

/// Runs the token rules (D1-D5, C1, S1) over one file. Suppression
/// and P1 pragma hygiene are applied by the caller via ApplyPragmas.
std::vector<Diagnostic> CheckTokens(const FileFacts& facts,
                                    const LintConfig& config);

/// Collects identifiers declared as std::unordered_map/set in a file.
std::set<std::string> CollectUnorderedDecls(const LexedFile& lex);

/// Collects identifiers declared as float/double in a file.
std::set<std::string> CollectFloatDecls(const LexedFile& lex);

/// Filters `raw` through the file's pragmas: a pragma on line L with a
/// matching rule suppresses diagnostics on L or L+1. Malformed and
/// unused pragmas are appended as P1 diagnostics.
std::vector<Diagnostic> ApplyPragmas(const std::string& path,
                                     const LexedFile& lex,
                                     std::vector<Diagnostic> raw);

}  // namespace hivesim::lint

#endif  // HIVESIM_TOOLS_LINT_LINT_H_

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "lint/layering.h"
#include "lint/lint.h"

namespace hivesim::lint {

namespace {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError(StrCat("cannot read ", path.string()));
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Extracts the "file" string of every entry in compile_commands.json.
/// A full JSON parser is not needed: the format is a flat array of
/// objects whose values are strings; this scanner walks string
/// literals (honoring escapes) and picks the value following a "file"
/// key at object depth.
std::vector<std::string> ParseCompileCommandFiles(const std::string& json) {
  std::vector<std::string> files;
  std::string last_string;
  bool last_was_file_key = false;
  size_t i = 0;
  const size_t n = json.size();
  while (i < n) {
    const char c = json[i];
    if (c == '"') {
      std::string value;
      ++i;
      while (i < n && json[i] != '"') {
        if (json[i] == '\\' && i + 1 < n) {
          const char esc = json[i + 1];
          if (esc == 'n') {
            value += '\n';
          } else if (esc == 't') {
            value += '\t';
          } else if (esc == 'u' && i + 5 < n) {
            value += '?';  // Non-ASCII never appears in paths we keep.
            i += 4;
          } else {
            value += esc;
          }
          i += 2;
          continue;
        }
        value += json[i];
        ++i;
      }
      ++i;  // Closing quote.
      if (last_was_file_key) {
        files.push_back(value);
        last_was_file_key = false;
      } else {
        last_string = value;
      }
      continue;
    }
    if (c == ':') {
      last_was_file_key = last_string == "file";
      ++i;
      continue;
    }
    if (c == ',' || c == '{' || c == '}' || c == '[' || c == ']') {
      last_was_file_key = false;
      last_string.clear();
    }
    ++i;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// True if `path` (absolute, normalized) lives under root/<dir> for one
/// of the scanned directories.
bool UnderScannedDirs(const fs::path& root, const fs::path& path) {
  static const char* const kDirs[] = {"src", "tools", "bench"};
  const std::string rel = fs::relative(path, root).string();
  for (const char* dir : kDirs) {
    const std::string prefix = StrCat(dir, "/");
    if (rel.compare(0, prefix.size(), prefix) == 0) return true;
  }
  return false;
}

/// Resolves a quoted include against the project roots. Project
/// headers are included as "module/header.h" (rooted at src/) or
/// "lint/header.h" (rooted at tools/). Returns empty when the include
/// is not a project file (e.g. <random> or a system header).
std::string ResolveInclude(const fs::path& root, const std::string& inc) {
  for (const char* base : {"src", "tools"}) {
    const fs::path candidate = root / base / inc;
    std::error_code ec;
    if (fs::exists(candidate, ec)) {
      return StrCat(base, "/", inc);
    }
  }
  return "";
}

}  // namespace

Result<LintReport> RunLint(const LintOptions& options) {
  std::error_code ec;
  const fs::path root = fs::canonical(options.repo_root, ec);
  if (ec) {
    return Status::InvalidArgument(
        StrCat("repo root not found: ", options.repo_root));
  }

  // ---- Collect the file set -----------------------------------------
  // TUs come from compile_commands.json (the build is the source of
  // truth for what is compiled); headers are globbed so a header not
  // yet included anywhere still obeys the rules.
  std::set<std::string> rel_files;  // Sorted, deduplicated.
  if (!options.compile_commands_path.empty()) {
    auto json = ReadFile(fs::path(options.compile_commands_path));
    if (!json.ok()) {
      return Status::IOError(
          StrCat("cannot read compile commands: ",
                 options.compile_commands_path,
                 " (configure with CMAKE_EXPORT_COMPILE_COMMANDS=ON first)"));
    }
    for (const std::string& file : ParseCompileCommandFiles(*json)) {
      const fs::path path = fs::weakly_canonical(file, ec);
      if (ec || !fs::exists(path)) continue;
      if (UnderScannedDirs(root, path)) {
        rel_files.insert(fs::relative(path, root).string());
      }
    }
    if (rel_files.empty()) {
      return Status::InvalidArgument(
          StrCat("no project translation units in ",
                 options.compile_commands_path));
    }
    for (const char* dir : {"src", "tools", "bench"}) {
      const fs::path base = root / dir;
      if (!fs::exists(base, ec)) continue;
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(base, ec)) {
        if (entry.path().extension() == ".h") {
          rel_files.insert(fs::relative(entry.path(), root).string());
        }
      }
    }
  }
  for (const std::string& extra : options.extra_files) {
    const fs::path path =
        fs::path(extra).is_absolute() ? fs::path(extra) : root / extra;
    if (!fs::exists(path, ec)) {
      return Status::InvalidArgument(StrCat("no such file: ", extra));
    }
    rel_files.insert(fs::relative(path, root).string());
  }

  // ---- Lex every file, build the include graph ----------------------
  std::map<std::string, FileFacts> facts;
  std::map<std::string, std::vector<std::string>> includes;  // resolved
  for (const std::string& rel : rel_files) {
    auto content = ReadFile(root / rel);
    if (!content.ok()) return content.status();
    FileFacts f;
    f.path = rel;
    f.lex = Lex(*content);
    for (const std::string& inc : f.lex.quoted_includes) {
      const std::string resolved = ResolveInclude(root, inc);
      if (!resolved.empty()) includes[rel].push_back(resolved);
    }
    facts.emplace(rel, std::move(f));
  }

  // ---- Structural pass + cross-TU call graph ------------------------
  // Every scanned file contributes its functions to one program-wide
  // call graph; LinkCallGraph then marks everything that can reach an
  // emission sink (a function whose body touches an emitter symbol)
  // and records the witness path. This replaces the old
  // "includes-an-emitter-header" approximation, which was wrong in
  // both directions: it missed emission through a cross-TU call, and
  // it flagged whole files when only one function emitted.
  for (auto& [rel, f] : facts) {
    f.structure = AnalyzeStructure(f.lex, options.config.emitter_symbols);
  }
  std::vector<std::pair<std::string, FileStructure*>> structures;
  structures.reserve(facts.size());
  for (auto& [rel, f] : facts) {
    structures.emplace_back(rel, &f.structure);
  }
  const GraphLinkResult linked = LinkCallGraph(std::move(structures));

  // Unordered-container and float declarations seen across each file's
  // include closure (member declarations live in headers; the .cc
  // iterates and accumulates).
  std::map<std::string, std::set<std::string>> decls;
  std::map<std::string, std::set<std::string>> float_decls;
  for (auto& [rel, f] : facts) {
    decls[rel] = CollectUnorderedDecls(f.lex);
    float_decls[rel] = CollectFloatDecls(f.lex);
  }
  for (auto& [rel, f] : facts) {
    std::set<std::string> closure = decls[rel];
    std::set<std::string> float_closure = float_decls[rel];
    std::set<std::string> visited{rel};
    std::vector<std::string> frontier{rel};
    while (!frontier.empty()) {
      const std::string current = frontier.back();
      frontier.pop_back();
      auto it = includes.find(current);
      if (it == includes.end()) continue;
      for (const std::string& inc : it->second) {
        if (!visited.insert(inc).second) continue;
        auto d = decls.find(inc);
        if (d == decls.end()) {
          // Header outside the scanned set (fixtures including real
          // src/ headers): lex it once for its declarations.
          auto content = ReadFile(root / inc);
          const LexedFile lexed = content.ok() ? Lex(*content) : LexedFile{};
          decls[inc] = CollectUnorderedDecls(lexed);
          float_decls[inc] = CollectFloatDecls(lexed);
          d = decls.find(inc);
        }
        closure.insert(d->second.begin(), d->second.end());
        float_closure.insert(float_decls[inc].begin(), float_decls[inc].end());
        frontier.push_back(inc);
      }
    }
    f.unordered_names = std::move(closure);
    f.float_names = std::move(float_closure);
    f.status_fns = linked.status_fns;
  }

  // ---- Run rules + pragma filtering ---------------------------------
  // L1 include-edge diagnostics land in lexed source files and flow
  // through the same per-file pragma filter as the token rules, so a
  // deliberate exception can be annotated at the include site. L1
  // diagnostics against CMakeLists.txt or the DAG itself have no lexed
  // pragmas and are appended unfiltered (not suppressible, on purpose).
  LintReport report;
  report.files_scanned = static_cast<int>(facts.size());
  std::map<std::string, std::vector<Diagnostic>> by_file;
  if (options.check_layering) {
    const fs::path src_root = root / "src";
    if (fs::exists(src_root, ec)) {
      for (Diagnostic& diag :
           CheckLayering(src_root.string(), options.config)) {
        if (facts.count(diag.file) > 0) {
          by_file[diag.file].push_back(std::move(diag));
        } else {
          report.diagnostics.push_back(std::move(diag));
        }
      }
    }
  }
  if (!options.entry_roots.empty()) {
    // U1 walks the whole program: the scanned files plus the library's
    // headers and the entry points' sources when the scan set lacks
    // them (examples/ and perfbench/ are not linted, but they ship).
    // K1 reads the writes in what that walk reached. Only scanned
    // library files are candidates, so every finding can be suppressed
    // in place.
    std::set<std::string> graph_paths;
    const auto add_tree = [&](const std::string& dir, bool with_sources) {
      const fs::path base = root / dir;
      if (!fs::exists(base, ec)) return;
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(base, ec)) {
        const fs::path ext = entry.path().extension();
        if (ext != ".h" && !(with_sources && ext == ".cc")) continue;
        const std::string rel = fs::relative(entry.path(), root).string();
        if (facts.count(rel) == 0) graph_paths.insert(rel);
      }
    };
    add_tree(options.config.library_dir, /*with_sources=*/false);
    for (const std::string& dir : options.entry_roots) {
      add_tree(dir, /*with_sources=*/true);
    }
    std::map<std::string, std::pair<LexedFile, FileStructure>> graph_only;
    for (const std::string& rel : graph_paths) {
      auto content = ReadFile(root / rel);
      if (!content.ok()) return content.status();
      auto& [lex, structure] = graph_only[rel];
      lex = Lex(*content);
      structure = AnalyzeStructure(lex, options.config.emitter_symbols);
    }
    std::vector<ProgramFile> program;
    for (const auto& [rel, f] : facts) {
      program.push_back({rel, &f.lex, &f.structure});
    }
    for (const auto& [rel, file] : graph_only) {
      program.push_back({rel, &file.first, &file.second});
    }
    Reachability reach = CheckUnreached(program, options.entry_roots,
                                        options.config.library_dir);
    std::vector<Diagnostic> knobs =
        CheckDeadKnobs(program, reach.shipped, options.entry_roots,
                       options.config.library_dir);
    for (std::vector<Diagnostic>* found : {&reach.unreached, &knobs}) {
      for (Diagnostic& diag : *found) {
        by_file[diag.file].push_back(std::move(diag));
      }
    }
  }
  for (const auto& [rel, f] : facts) {
    std::vector<Diagnostic> raw = CheckTokens(f, options.config);
    auto extra = by_file.find(rel);
    if (extra != by_file.end()) {
      raw.insert(raw.end(), extra->second.begin(), extra->second.end());
    }
    std::vector<Diagnostic> filtered = ApplyPragmas(rel, f.lex, std::move(raw));
    report.diagnostics.insert(report.diagnostics.end(), filtered.begin(),
                              filtered.end());
  }
  // Lock-order cycles are a property of the whole program's declared
  // acquisition DAG, not any one line — appended unfiltered (not
  // pragma-suppressible), like module-DAG cycles.
  report.diagnostics.insert(report.diagnostics.end(),
                            linked.lock_order.begin(),
                            linked.lock_order.end());

  std::sort(report.diagnostics.begin(), report.diagnostics.end());
  report.diagnostics.erase(
      std::unique(report.diagnostics.begin(), report.diagnostics.end()),
      report.diagnostics.end());
  return report;
}

std::string FormatReport(const LintReport& report) {
  std::string out;
  for (const Diagnostic& diag : report.diagnostics) {
    out += StrCat(diag.file, ":", diag.line, ": error: [", diag.rule, "] ",
                  diag.message, "\n");
  }
  out += StrCat(report.files_scanned, " files scanned, ",
                report.diagnostics.size(), " diagnostic",
                report.diagnostics.size() == 1 ? "" : "s", "\n");
  return out;
}

std::string JsonReport(const LintReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("hivesim-lint/1");
  json.Key("files_scanned").Int(report.files_scanned);
  json.Key("diagnostics").BeginArray();
  for (const Diagnostic& diag : report.diagnostics) {
    json.BeginObject();
    json.Key("file").String(diag.file);
    json.Key("line").Int(diag.line);
    json.Key("rule").String(diag.rule);
    json.Key("message").String(diag.message);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.ToString();
}

}  // namespace hivesim::lint

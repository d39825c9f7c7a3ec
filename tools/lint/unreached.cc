// Rule U1: library code that no shipped entry point reaches.
//
// A forward BFS over the same name-linked call graph the emission rules
// use, but with wider edges: a reached function reaches every function
// and declaration (file-scope table, class body, macro) named by an
// identifier it mentions, so calls, callbacks and table entries all
// count. A member of class C is reached only once some reached node
// mentions C as well, so a name that shipped code calls on other
// classes (`Start`, `Tick`) does not keep alive a class that nothing
// shipped constructs.

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "lint/lint.h"

namespace hivesim::lint {

namespace {

bool UnderDir(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::vector<Diagnostic> CheckUnreached(
    const std::vector<std::pair<std::string, const FileStructure*>>& files,
    const std::vector<std::string>& entry_roots,
    const std::string& library_dir) {
  struct Node {
    const std::string* file = nullptr;
    const FunctionSpan* fn = nullptr;  ///< nullptr for a DeclSpan.
    const std::vector<std::string>* mentions = nullptr;
    std::string owner;  ///< Gating class; "" for free functions.
  };
  std::set<std::string> classes;
  for (const auto& [path, structure] : files) {
    classes.insert(structure->class_names.begin(),
                   structure->class_names.end());
  }

  std::vector<Node> nodes;
  std::map<std::string, std::vector<size_t>> by_name;
  std::vector<size_t> roots;
  for (const auto& [path, structure] : files) {
    bool is_root = false;
    for (const std::string& dir : entry_roots) is_root |= UnderDir(path, dir);
    for (const FunctionSpan& fn : structure->functions) {
      Node node{&path, &fn, &fn.mentions, ""};
      if (classes.count(fn.owner) > 0) node.owner = fn.owner;
      by_name[fn.name].push_back(nodes.size());
      if (is_root) roots.push_back(nodes.size());
      nodes.push_back(std::move(node));
    }
    for (const DeclSpan& decl : structure->decls) {
      by_name[decl.name].push_back(nodes.size());
      if (is_root) roots.push_back(nodes.size());
      nodes.push_back({&path, nullptr, &decl.mentions, ""});
    }
  }

  std::vector<bool> reached(nodes.size(), false);
  std::deque<size_t> frontier;
  std::set<std::string> mentioned;
  // Class -> members already named by a reached node, waiting for the
  // class itself to be mentioned.
  std::map<std::string, std::vector<size_t>> waiting;
  const auto reach = [&](size_t n) {
    if (reached[n]) return;
    reached[n] = true;
    frontier.push_back(n);
  };
  const auto hit = [&](size_t n) {
    const std::string& owner = nodes[n].owner;
    if (owner.empty() || mentioned.count(owner) > 0) {
      reach(n);
    } else {
      waiting[owner].push_back(n);
    }
  };
  const auto mention = [&](const std::string& name) {
    if (!mentioned.insert(name).second) return;
    // Destructors are never named; they run wherever the class lives.
    for (const std::string& key : {name, StrCat("~", name)}) {
      const auto it = by_name.find(key);
      if (it == by_name.end()) continue;
      for (const size_t n : it->second) hit(n);
    }
    const auto it = waiting.find(name);
    if (it == waiting.end()) return;
    for (const size_t n : it->second) reach(n);
    waiting.erase(it);
  };
  for (const size_t n : roots) reach(n);
  while (!frontier.empty()) {
    const size_t n = frontier.front();
    frontier.pop_front();
    for (const std::string& name : *nodes[n].mentions) mention(name);
  }

  std::string root_list;
  for (const std::string& dir : entry_roots) {
    root_list += StrCat(root_list.empty() ? "" : ", ", dir, "/");
  }
  std::vector<Diagnostic> out;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const Node& node = nodes[n];
    if (reached[n] || node.fn == nullptr) continue;
    if (!UnderDir(*node.file, library_dir) || !EndsWith(*node.file, ".cc")) {
      continue;
    }
    out.push_back(
        {*node.file, node.fn->line, "U1",
         StrCat("'", node.fn->qualified,
                "' is not reached from any shipped entry point (", root_list,
                "); delete it, or name its consumer in 'hivesim-lint: "
                "allow(U1) reason=<why>'")});
  }
  return out;
}

}  // namespace hivesim::lint

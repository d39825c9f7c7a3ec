// Rule U1: library code that no shipped entry point reaches.
//
// A forward BFS over the same name-linked call graph the emission rules
// use, but with wider edges: a reached function reaches every function
// and declaration (file-scope table, class body, macro) named by an
// identifier it mentions, so calls, callbacks and table entries all
// count. A member of class C is reached only once some reached node
// mentions C as well, so a name that shipped code calls on other
// classes (`Start`, `Tick`) does not keep alive a class that nothing
// shipped constructs. A member named through a typed receiver (`t.m`
// with `T t` a parameter or local, or `T::m`) links only to `m` in T,
// its bases and the classes derived from it; when none of them defines
// `m`, it links by simple name like any other mention.

#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "lint/lint.h"

namespace hivesim::lint {

bool UnderDir(const std::string& path, const std::string& dir) {
  return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
         path[dir.size()] == '/';
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

namespace {

/// Every class reachable from `start` along `edges`, `start` included.
std::set<std::string> Closure(
    const std::string& start,
    const std::map<std::string, std::set<std::string>>& edges) {
  std::set<std::string> seen{start};
  std::vector<std::string> frontier{start};
  while (!frontier.empty()) {
    const auto it = edges.find(frontier.back());
    frontier.pop_back();
    if (it == edges.end()) continue;
    for (const std::string& next : it->second) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return seen;
}

}  // namespace

std::string EntryRootList(const std::vector<std::string>& entry_roots) {
  std::vector<std::string> dirs;
  for (const std::string& dir : entry_roots) dirs.push_back(dir + "/");
  return StrJoin(dirs, ", ");
}

Reachability CheckUnreached(const std::vector<ProgramFile>& files,
                            const std::vector<std::string>& entry_roots,
                            const std::string& library_dir) {
  struct Node {
    const ProgramFile* file = nullptr;
    const FunctionSpan* fn = nullptr;  ///< nullptr for a DeclSpan.
    const DeclSpan* decl = nullptr;
    const std::vector<std::string>* mentions = nullptr;
    std::string owner;  ///< Gating class; "" for free functions.
  };
  std::set<std::string> classes;
  for (const ProgramFile& file : files) {
    classes.insert(file.structure->class_names.begin(),
                   file.structure->class_names.end());
  }
  std::map<std::string, std::set<std::string>> bases;
  std::map<std::string, std::set<std::string>> derived;
  for (const ProgramFile& file : files) {
    for (const auto& [cls, names] : file.structure->class_bases) {
      for (const std::string& base : names) {
        if (classes.count(base) == 0) continue;
        bases[cls].insert(base);
        derived[base].insert(cls);
      }
    }
  }

  std::vector<Node> nodes;
  std::map<std::string, std::vector<size_t>> by_name;
  std::map<std::pair<std::string, std::string>, std::vector<size_t>>
      by_member;  // (owner, name) -> member functions.
  std::vector<size_t> roots;
  for (const ProgramFile& file : files) {
    bool is_root = false;
    for (const std::string& dir : entry_roots) {
      is_root |= UnderDir(file.path, dir);
    }
    for (const FunctionSpan& fn : file.structure->functions) {
      Node node{&file, &fn, nullptr, &fn.mentions, ""};
      if (classes.count(fn.owner) > 0) {
        node.owner = fn.owner;
        by_member[{fn.owner, fn.name}].push_back(nodes.size());
      }
      by_name[fn.name].push_back(nodes.size());
      if (is_root) roots.push_back(nodes.size());
      nodes.push_back(std::move(node));
    }
    for (const DeclSpan& decl : file.structure->decls) {
      by_name[decl.name].push_back(nodes.size());
      if (is_root) roots.push_back(nodes.size());
      nodes.push_back({&file, nullptr, &decl, &decl.mentions, ""});
    }
  }

  std::vector<bool> reached(nodes.size(), false);
  std::deque<size_t> frontier;
  std::set<std::string> mentioned;
  std::set<std::pair<std::string, std::string>> linked_refs;
  // Class -> T, its bases and the classes derived from it.
  std::map<std::string, std::set<std::string>> families;
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
  const auto link_member = [&](const auto& ref) {
    if (!linked_refs.insert(ref).second) return;
    const auto& [type, member] = ref;
    bool found = false;
    if (classes.count(type) > 0) {
      auto family = families.find(type);
      if (family == families.end()) {
        std::set<std::string> all = Closure(type, bases);
        const std::set<std::string> below = Closure(type, derived);
        all.insert(below.begin(), below.end());
        family = families.emplace(type, std::move(all)).first;
      }
      for (const std::string& owner : family->second) {
        const auto it = by_member.find({owner, member});
        if (it == by_member.end()) continue;
        found = true;
        for (const size_t n : it->second) hit(n);
      }
    }
    if (!found) mention(member);
  };
  for (const size_t n : roots) reach(n);
  while (!frontier.empty()) {
    const size_t n = frontier.front();
    frontier.pop_front();
    for (const std::string& name : *nodes[n].mentions) mention(name);
    if (nodes[n].fn == nullptr) continue;
    for (const auto& ref : nodes[n].fn->member_refs) link_member(ref);
  }

  const std::string root_list = EntryRootList(entry_roots);
  Reachability out;
  for (size_t n = 0; n < nodes.size(); ++n) {
    const Node& node = nodes[n];
    if (reached[n]) {
      out.shipped.push_back({node.file, node.fn, node.decl});
      continue;
    }
    if (node.fn == nullptr) continue;
    if (!UnderDir(node.file->path, library_dir) ||
        !EndsWith(node.file->path, ".cc")) {
      continue;
    }
    out.unreached.push_back(
        {node.file->path, node.fn->line, "U1",
         StrCat("'", node.fn->qualified,
                "' is not reached from any shipped entry point (", root_list,
                "); delete it, or name its consumer in 'hivesim-lint: "
                "allow(U1) reason=<why>'")});
  }
  return out;
}

}  // namespace hivesim::lint

#ifndef HIVESIM_TOOLS_LINT_CALLGRAPH_H_
#define HIVESIM_TOOLS_LINT_CALLGRAPH_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lexer.h"

namespace hivesim::lint {

/// One function definition recovered from the token stream. The
/// extractor is not a C++ front end: it tracks namespace/class scopes
/// and brace depth, recognizes `name(args) [qualifiers] {` definition
/// heads (including constructor initializer lists and trailing return
/// types), and records which simple names the body calls. Lambdas and
/// local classes inside a body are attributed to the enclosing
/// function — exactly what reachability wants.
struct FunctionSpan {
  std::string name;       ///< Simple name ("EmitCounts").
  std::string qualified;  ///< Scoped display name ("report::EmitCounts").
  int line = 0;           ///< Line of the definition head.
  size_t head = 0;        ///< Token index of the name.
  size_t body_begin = 0;  ///< Token index of the body '{'.
  size_t body_end = 0;    ///< Token index of the matching '}'.
  /// Simple names of everything the body calls (`ident(` occurrences,
  /// keywords excluded), in order of first appearance, deduplicated.
  std::vector<std::string> calls;
  /// First emitter symbol the body mentions ("" when none). A non-empty
  /// value makes this function a direct emission sink.
  std::string emitter_symbol;
  /// Every identifier the parameter list, initializer list and body
  /// mention, sorted and deduplicated (rule U1's forward edges: a
  /// function passed as a callback is mentioned, not called), except
  /// the member names in `member_refs`.
  std::vector<std::string> mentions;
  /// Members named through a typed receiver, as (type, member): `t.m` or
  /// `t->m` where `t` is a parameter or local declared `T t`, and an
  /// explicit `T::m`. Sorted, deduplicated. U1 links each to T's
  /// hierarchy, or by simple name when T has no member `m`.
  std::vector<std::pair<std::string, std::string>> member_refs;
  /// Parameter and local name -> its declared type's last identifier
  /// ("" when declared more than once with different types, or through
  /// `auto`, a template or a pointer to function).
  std::map<std::string, std::string> locals;
  /// The class this is a member of: the innermost class scope of an
  /// in-class definition, or the last qualifier of an out-of-line one
  /// (`Foo::Bar` -> "Foo"; a namespace qualifier is filtered out by
  /// the U1 linker against FileStructure::class_names).
  std::string owner;

  // Filled in by LinkCallGraph (lint.h):
  bool reaches_emission = false;
  /// Witness: "Caller -> Callee -> ... -> Sink -> JsonWriter". The last
  /// element is the emitter symbol the sink touches.
  std::string emission_path;
};

/// A mutex or atomic declaration, for rule C1. Mutexes must declare
/// their place in the lock-acquisition DAG (HIVESIM_ACQUIRED_AFTER /
/// HIVESIM_ACQUIRED_BEFORE edges, or HIVESIM_LOCK_ORDER_ROOT); atomics
/// must be HIVESIM_GUARDED_BY a mutex or marked
/// HIVESIM_ATOMIC_LOCK_FREE with the contract documented.
struct SyncDecl {
  enum class Kind { kMutex, kAtomic };
  Kind kind = Kind::kMutex;
  std::string name;   ///< Declared member/variable name.
  std::string scope;  ///< Enclosing class/namespace ("" at file scope).
  int line = 0;
  bool annotated = false;
  /// Declared ordering edges (mutexes only), as written in the
  /// annotation arguments; unqualified names resolve against `scope`.
  std::vector<std::string> acquired_after;
  std::vector<std::string> acquired_before;
};

/// A named declaration that is not a function but that rule U1 treats
/// as a node: mentioning `name` reaches everything it mentions. Three
/// kinds are recorded: a namespace-scope variable with an `=`
/// initializer (`const Entry kTable[] = {{"x", &Handler}, ...};`), a
/// class body (its bases and member types, not its member function
/// names, so a live class does not keep its dead members alive), and
/// a `#define` (so `HIVESIM_LOG(...)` reaches what the macro expands
/// to).
struct DeclSpan {
  enum class Kind { kInitializer, kClass, kMacro };
  Kind kind = Kind::kInitializer;
  std::string name;
  int line = 0;
  std::vector<std::string> mentions;  ///< Sorted, deduplicated.
  /// Token range: an initializer's whole declaration statement, a class
  /// body's `{`..`}`, a macro's `define`..last body token (inclusive).
  size_t begin = 0;
  size_t end = 0;
};

/// Everything the structural pass extracts from one file.
struct FileStructure {
  std::vector<FunctionSpan> functions;
  std::vector<DeclSpan> decls;
  /// Names of the classes and structs this file defines (not forward
  /// declarations).
  std::set<std::string> class_names;
  /// Class -> identifiers of its base clause (access keywords and
  /// namespace qualifiers included; only class names matter).
  std::map<std::string, std::vector<std::string>> class_bases;
  std::vector<SyncDecl> sync_decls;
  /// Names of functions observed returning `Status` or `Result<T>` by
  /// value (definitions, declarations, and factory calls alike). Rule
  /// S1 checks `(void)` discards against the cross-TU union of these.
  std::set<std::string> status_fns;
};

/// Structural pass over one lexed file.
FileStructure AnalyzeStructure(const LexedFile& lex,
                               const std::set<std::string>& emitter_symbols);

/// Innermost function whose body contains token index `i` (functions do
/// not nest in the extracted model, so "innermost" is the latest span
/// covering `i`). nullptr when the token is at file/class scope.
const FunctionSpan* EnclosingFunction(const FileStructure& structure,
                                      size_t token_index);

}  // namespace hivesim::lint

#endif  // HIVESIM_TOOLS_LINT_CALLGRAPH_H_

#include "lint/callgraph.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>

#include "common/strings.h"
#include "lint/lint.h"

namespace hivesim::lint {

namespace {

/// Words that look like `ident(` but are never function definitions or
/// calls worth tracking.
bool IsKeyword(const std::string& s) {
  static const std::set<std::string>& kw = *new std::set<std::string>{
      "if",       "for",     "while",   "switch",   "return",
      "catch",    "sizeof",  "new",     "delete",   "do",
      "else",     "case",    "default", "defined",  "throw",
      "alignof",  "alignas", "decltype", "noexcept", "static_assert",
      "assert",   "typeid",  "co_await", "co_return", "co_yield",
  };
  return kw.count(s) > 0;
}

int AngleDelta(const Token& tok) {
  if (tok.kind != TokKind::kPunct) return 0;
  if (tok.text == "<") return 1;
  if (tok.text == ">") return -1;
  if (tok.text == ">>") return -2;
  return 0;
}

bool IsIdent(const Token& tok, const char* text) {
  return tok.kind == TokKind::kIdentifier && tok.text == text;
}

/// Index just past a balanced `(`..`)` group starting at `open`
/// (tokens.size() when unbalanced).
size_t SkipParens(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "(")) ++depth;
    if (IsPunct(toks[j], ")")) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return toks.size();
}

/// Index just past a balanced `{`..`}` group starting at `open`.
size_t SkipBraces(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (IsPunct(toks[j], "{")) ++depth;
    if (IsPunct(toks[j], "}")) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return toks.size();
}

/// Index just past a balanced template argument list starting at the
/// `<` token (fused `>>` closes two levels).
size_t SkipAngles(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    depth += AngleDelta(toks[j]);
    if (depth <= 0) return j + 1;
  }
  return toks.size();
}

/// Scans forward from the token after a definition head's closing `)`
/// looking for the body `{`. Accepts trailing qualifiers (const,
/// noexcept(...), override, ref-qualifiers, HIVESIM_* annotation
/// macros), trailing return types, and constructor initializer lists.
/// Returns the body's token index, or npos for declarations,
/// `= default/delete`, and anything unrecognized (macro soup in
/// preprocessor bodies bails here, by design).
size_t FindBodyBrace(const std::vector<Token>& toks, size_t after_paren) {
  constexpr size_t npos = static_cast<size_t>(-1);
  size_t k = after_paren;
  while (k < toks.size()) {
    const Token& u = toks[k];
    if (u.kind == TokKind::kIdentifier) {
      if (u.text == "const" || u.text == "noexcept" || u.text == "override" ||
          u.text == "final" || u.text == "mutable" || u.text == "try" ||
          u.text.rfind("HIVESIM_", 0) == 0) {
        ++k;
        continue;
      }
      return npos;
    }
    if (u.kind != TokKind::kPunct) return npos;
    if (u.text == "(") {
      k = SkipParens(toks, k);  // noexcept(...) / annotation args.
      continue;
    }
    if (u.text == "&") {
      ++k;  // Ref-qualifier (&& arrives as two '&' tokens).
      continue;
    }
    if (u.text == "->") {
      // Trailing return type: consume until the body or a ';'.
      ++k;
      while (k < toks.size() && !IsPunct(toks[k], "{") &&
             !IsPunct(toks[k], ";")) {
        ++k;
      }
      continue;
    }
    if (u.text == ":") {
      // Constructor initializer list: `member(expr)` / `member{expr}`
      // groups, then the body. A '{' directly after an identifier (or
      // closing template bracket) is a member brace-init; the body '{'
      // follows a ')' or '}' group end.
      ++k;
      int paren_depth = 0;
      while (k < toks.size()) {
        const Token& v = toks[k];
        if (IsPunct(v, "(")) ++paren_depth;
        if (IsPunct(v, ")")) --paren_depth;
        // A ';' here means the ':' was a ternary or label, not an
        // initializer list (`int x = c ? F(1) : G(2);` at file scope).
        if (IsPunct(v, ";") && paren_depth == 0) return npos;
        if (IsPunct(v, "{") && paren_depth == 0) {
          const Token& prev = toks[k - 1];
          const bool brace_init =
              prev.kind == TokKind::kIdentifier ||
              (prev.kind == TokKind::kPunct &&
               (prev.text == ">" || prev.text == ">>"));
          if (!brace_init) break;
          k = SkipBraces(toks, k);
          continue;
        }
        ++k;
      }
      continue;  // Re-examine toks[k]: either the body '{' or EOF.
    }
    if (u.text == "{") return k;
    return npos;  // ';', '=', ',', operators: a declaration, not a body.
  }
  return npos;
}

/// True for the token after a declared name: `T v = ...`, `T v;`,
/// `T v(...)`, `T v{...}`, a parameter's `,`/`)`, `T v[...]`, and a
/// range-for's `:`.
bool EndsDeclarator(const Token& tok) {
  if (tok.kind != TokKind::kPunct) return false;
  return tok.text == "=" || tok.text == ";" || tok.text == "(" ||
         tok.text == "{" || tok.text == "," || tok.text == ")" ||
         tok.text == "[" || tok.text == ":";
}

/// Fills `fn`'s mentions, member_refs and locals from the tokens of its
/// signature and body, in one forward pass: a declaration is seen before
/// the receiver it types.
void CollectMentions(const std::vector<Token>& toks, FunctionSpan* fn) {
  static const std::set<std::string>& kNotTypes = *new std::set<std::string>{
      "const",  "constexpr", "static", "using",    "namespace", "typename",
      "goto",   "operator",  "struct", "class",    "enum",      "template",
      "public", "private",   "protected", "friend", "volatile",
  };
  const auto declare = [fn](const std::string& name, const std::string& type) {
    const auto [it, inserted] = fn->locals.emplace(name, type);
    if (!inserted && it->second != type) it->second = "";
  };
  const size_t first = fn->head + 1;
  const size_t end = std::min(fn->body_end, toks.size());
  for (size_t j = first; j < end; ++j) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdentifier) continue;
    if (j + 1 < end && EndsDeclarator(toks[j + 1])) {
      size_t k = j;  // Skip the declarator's `*` and `&`.
      while (k > first &&
             (IsPunct(toks[k - 1], "*") || IsPunct(toks[k - 1], "&"))) {
        --k;
      }
      if (k > first) {
        const Token& type = toks[k - 1];
        const bool member_of = k >= 2 + first && IsMemberAccess(toks[k - 2]);
        if (type.kind == TokKind::kIdentifier && !member_of &&
            !IsKeyword(type.text) && kNotTypes.count(type.text) == 0) {
          declare(t.text, type.text == "auto" ? "" : type.text);
        } else if (IsPunct(type, ">") || IsPunct(type, ">>") ||
                   IsIdent(type, "const")) {
          declare(t.text, "");
        }
      }
    }
    if (j >= first + 2 && toks[j - 2].kind == TokKind::kIdentifier) {
      const bool chained =
          j >= first + 3 &&
          (IsMemberAccess(toks[j - 3]) || IsPunct(toks[j - 3], "::"));
      if (IsMemberAccess(toks[j - 1]) && !chained) {
        const auto it = fn->locals.find(toks[j - 2].text);
        if (it != fn->locals.end() && !it->second.empty()) {
          fn->member_refs.emplace_back(it->second, t.text);
          continue;
        }
      }
      if (IsPunct(toks[j - 1], "::")) {
        fn->member_refs.emplace_back(toks[j - 2].text, t.text);
        continue;
      }
    }
    fn->mentions.push_back(t.text);
  }
}

}  // namespace

const FunctionSpan* EnclosingFunction(const FileStructure& structure,
                                      size_t token_index) {
  const FunctionSpan* best = nullptr;
  for (const FunctionSpan& fn : structure.functions) {
    if (fn.body_begin <= token_index && token_index < fn.body_end) {
      best = &fn;  // Spans appear in order; the last match is innermost.
    }
  }
  return best;
}

FileStructure AnalyzeStructure(const LexedFile& lex,
                               const std::set<std::string>& emitter_symbols) {
  constexpr size_t npos = static_cast<size_t>(-1);
  FileStructure out;
  const std::vector<Token>& toks = lex.tokens;

  struct Scope {
    std::string name;  ///< "" for anonymous namespaces.
    int depth;         ///< Brace depth after the scope's own '{'.
    bool is_class;
    int decl;  ///< Index into out.decls of a class body, else -1.
  };
  std::vector<Scope> scopes;
  int depth = 0;        ///< Brace depth over visited tokens.
  int paren_depth = 0;  ///< Paren depth (skipped spans are balanced).
  int open_fn = -1;     ///< Index into out.functions, -1 at scope level.
  int open_fn_depth = 0;

  // Directly inside a namespace (or at file scope), not inside a
  // class, enum, function or initializer.
  auto at_namespace_level = [&]() {
    if (open_fn >= 0 || paren_depth != 0) return false;
    if (scopes.empty()) return depth == 0;
    return depth == scopes.back().depth && !scopes.back().is_class;
  };
  auto finish_mentions = [](auto* mentions) {
    std::sort(mentions->begin(), mentions->end());
    mentions->erase(std::unique(mentions->begin(), mentions->end()),
                    mentions->end());
  };

  auto scope_name = [&scopes]() {
    std::string joined;
    for (const Scope& scope : scopes) {
      if (scope.name.empty()) continue;
      if (!joined.empty()) joined += "::";
      joined += scope.name;
    }
    return joined;
  };

  // Collects one mutex/atomic declaration starting at the type token.
  // Returns the index to resume from, or npos when not a declaration.
  auto collect_sync_decl = [&](size_t i, SyncDecl::Kind kind) -> size_t {
    size_t j = i + 1;
    if (kind == SyncDecl::Kind::kAtomic) {
      if (j >= toks.size() || !IsPunct(toks[j], "<")) return npos;
      j = SkipAngles(toks, j);
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdentifier) return npos;
    SyncDecl decl;
    decl.kind = kind;
    decl.name = toks[j].text;
    decl.scope = scope_name();
    decl.line = toks[j].line;
    ++j;
    if (j < toks.size() && IsPunct(toks[j], "(")) return npos;  // Not a decl.
    // Prefix annotations (HIVESIM_ATOMIC_LOCK_FREE std::atomic<...> x):
    // look back a few tokens, bounded by the previous statement.
    for (size_t b = i; b > 0 && i - b < 8; --b) {
      const Token& p = toks[b - 1];
      if (p.kind == TokKind::kPunct &&
          (p.text == ";" || p.text == "{" || p.text == "}")) {
        break;
      }
      if (IsIdent(p, "HIVESIM_ATOMIC_LOCK_FREE") ||
          IsIdent(p, "HIVESIM_GUARDED_BY")) {
        decl.annotated = true;
      }
    }
    // Postfix annotations, up to the terminating ';'. Brace/paren
    // initializers are skipped wholesale.
    while (j < toks.size() && !IsPunct(toks[j], ";")) {
      const Token& u = toks[j];
      if (IsPunct(u, "{")) {
        j = SkipBraces(toks, j);
        continue;
      }
      if (u.kind == TokKind::kIdentifier) {
        if (u.text == "HIVESIM_LOCK_ORDER_ROOT" ||
            (kind == SyncDecl::Kind::kAtomic &&
             (u.text == "HIVESIM_GUARDED_BY" ||
              u.text == "HIVESIM_ATOMIC_LOCK_FREE"))) {
          decl.annotated = true;
        }
        if (u.text == "HIVESIM_ACQUIRED_AFTER" ||
            u.text == "HIVESIM_ACQUIRED_BEFORE") {
          decl.annotated = true;
          const bool after = u.text == "HIVESIM_ACQUIRED_AFTER";
          // Parse the argument list into `::`-joined names.
          size_t a = j + 1;
          if (a < toks.size() && IsPunct(toks[a], "(")) {
            std::string arg;
            for (++a; a < toks.size() && !IsPunct(toks[a], ")"); ++a) {
              if (toks[a].kind == TokKind::kIdentifier) arg += toks[a].text;
              if (IsPunct(toks[a], "::")) arg += "::";
              if (IsPunct(toks[a], ",")) {
                if (!arg.empty()) {
                  (after ? decl.acquired_after : decl.acquired_before)
                      .push_back(arg);
                }
                arg.clear();
              }
            }
            if (!arg.empty()) {
              (after ? decl.acquired_after : decl.acquired_before)
                  .push_back(arg);
            }
            j = a;
          }
        }
      }
      ++j;
    }
    out.sync_decls.push_back(std::move(decl));
    return j;
  };

  // Records a namespace-scope `name = initializer;` (rule U1's table
  // nodes) given the index of its '='. The tokens are still walked by
  // the main loop afterwards; this only reads them.
  auto collect_initializer = [&](size_t eq) {
    if (eq == 0 || eq + 1 >= toks.size() || IsPunct(toks[eq + 1], "=")) {
      return;  // `==`, or a truncated file.
    }
    size_t n = eq - 1;
    while (n > 0 && IsPunct(toks[n], "]")) {  // `kTable[] = ...`
      while (n > 0 && !IsPunct(toks[n], "[")) --n;
      if (n > 0) --n;
    }
    if (toks[n].kind != TokKind::kIdentifier) return;
    if (n > 0 && IsIdent(toks[n - 1], "operator")) return;
    // A default template argument (`template <class T = int>`) is not
    // a variable.
    for (size_t b = n; b > 0; --b) {
      const Token& p = toks[b - 1];
      if (IsPunct(p, ";") || IsPunct(p, "{") || IsPunct(p, "}")) break;
      if (IsIdent(p, "template")) return;
    }
    DeclSpan init;
    init.name = toks[n].text;
    init.line = toks[n].line;
    init.begin = n;
    while (init.begin > 0 && !IsPunct(toks[init.begin - 1], ";") &&
           !IsPunct(toks[init.begin - 1], "{") &&
           !IsPunct(toks[init.begin - 1], "}")) {
      --init.begin;
    }
    int nest = 0;
    size_t j = eq + 1;
    for (; j < toks.size(); ++j) {
      const Token& u = toks[j];
      if (IsPunct(u, "{") || IsPunct(u, "(")) ++nest;
      if (IsPunct(u, "}") || IsPunct(u, ")")) --nest;
      if (nest < 0 || (nest == 0 && IsPunct(u, ";"))) break;
      if (u.kind == TokKind::kIdentifier) init.mentions.push_back(u.text);
    }
    init.end = j;
    out.decls.push_back(std::move(init));
  };

  // Records `#define NAME body` (the lexer drops the '#'). The body
  // runs to the end of the line, or further across `\` continuations.
  auto collect_macro = [&](size_t define) {
    if (define + 1 >= toks.size() ||
        toks[define + 1].kind != TokKind::kIdentifier ||
        toks[define + 1].line != toks[define].line) {
      return;
    }
    DeclSpan macro;
    macro.kind = DeclSpan::Kind::kMacro;
    macro.name = toks[define + 1].text;
    macro.line = toks[define].line;
    macro.begin = define;
    int last_line = macro.line;
    size_t j = define + 2;
    for (; j < toks.size(); ++j) {
      if (toks[j].line > last_line) {
        if (!IsPunct(toks[j - 1], "\\")) break;
        last_line = toks[j].line;
      }
      if (toks[j].kind == TokKind::kIdentifier) {
        macro.mentions.push_back(toks[j].text);
      }
    }
    macro.end = j - 1;
    out.decls.push_back(std::move(macro));
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "(") ++paren_depth;
      if (t.text == ")") --paren_depth;
      if (t.text == "{") ++depth;
      if (t.text == "=" && at_namespace_level()) {
        collect_initializer(i);
      }
      if (t.text == "}") {
        --depth;
        if (open_fn >= 0 && depth < open_fn_depth) {
          out.functions[open_fn].body_end = i;
          open_fn = -1;
        }
        while (!scopes.empty() && depth < scopes.back().depth) {
          if (scopes.back().decl >= 0) out.decls[scopes.back().decl].end = i;
          scopes.pop_back();
        }
      }
      continue;
    }
    if (t.kind != TokKind::kIdentifier) continue;

    // ---- Status/Result-returning function names (rule S1) -----------
    if (t.text == "Status" || t.text == "Result") {
      size_t j = i + 1;
      bool shape_ok = true;
      if (t.text == "Result") {
        if (j < toks.size() && IsPunct(toks[j], "<")) {
          j = SkipAngles(toks, j);
        } else {
          shape_ok = false;
        }
      }
      if (shape_ok) {
        // `Status Name(` / `Status::Factory(` / `Result<T> Cls::Fn(`.
        std::string last;
        while (j < toks.size()) {
          if (toks[j].kind == TokKind::kIdentifier) {
            last = toks[j].text;
            ++j;
            if (j < toks.size() && IsPunct(toks[j], "::")) {
              ++j;
              continue;
            }
            break;
          }
          if (IsPunct(toks[j], "::")) {
            ++j;
            continue;
          }
          break;
        }
        if (!last.empty() && !IsKeyword(last) && j < toks.size() &&
            IsPunct(toks[j], "(")) {
          out.status_fns.insert(last);
        }
      }
    }

    // ---- Mutex / atomic declarations (rule C1) -----------------------
    if (paren_depth == 0) {
      const bool std_qualified = i >= 2 && IsPunct(toks[i - 1], "::") &&
                                 IsIdent(toks[i - 2], "std");
      SyncDecl::Kind kind = SyncDecl::Kind::kMutex;
      bool is_sync = false;
      if (std_qualified && (t.text == "mutex" || t.text == "shared_mutex" ||
                            t.text == "recursive_mutex")) {
        is_sync = true;
      } else if (t.text == "Mutex") {
        is_sync = true;
      } else if (std_qualified && t.text == "atomic") {
        is_sync = true;
        kind = SyncDecl::Kind::kAtomic;
      }
      if (is_sync) {
        const size_t resume = collect_sync_decl(i, kind);
        if (resume != npos) {
          // Leave `i` alone: the decl's tokens carry no braces/parens
          // we have not already accounted for, except initializers —
          // those were skipped by collect_sync_decl, so fast-forward.
          i = resume - 1;
          continue;
        }
      }
    }

    if (open_fn >= 0) {
      // ---- Inside a function body: calls + emitter mentions ----------
      FunctionSpan& fn = out.functions[open_fn];
      if (fn.emitter_symbol.empty() && emitter_symbols.count(t.text) > 0) {
        fn.emitter_symbol = t.text;
      }
      if (!IsKeyword(t.text) && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(")) {
        if (std::find(fn.calls.begin(), fn.calls.end(), t.text) ==
            fn.calls.end()) {
          fn.calls.push_back(t.text);
        }
      }
      continue;
    }

    if (t.text == "define") collect_macro(i);
    // Member types and initializers feed the class body's node; member
    // function names (`name(`) do not.
    if (!scopes.empty() && scopes.back().decl >= 0 && i + 1 < toks.size() &&
        !IsPunct(toks[i + 1], "(")) {
      out.decls[scopes.back().decl].mentions.push_back(t.text);
    }

    // ---- Namespace scopes -------------------------------------------
    if (t.text == "namespace") {
      std::string name;
      size_t j = i + 1;
      while (j < toks.size()) {
        if (toks[j].kind == TokKind::kIdentifier) {
          if (!name.empty()) name += "::";
          name += toks[j].text;
          ++j;
          continue;
        }
        if (IsPunct(toks[j], "::")) {
          ++j;
          continue;
        }
        break;
      }
      if (j < toks.size() && IsPunct(toks[j], "{")) {
        scopes.push_back({name, depth + 1, /*is_class=*/false, -1});
        ++depth;
        i = j;
      }
      continue;
    }

    // ---- Class/struct scopes (not `enum class`, and not a
    // `template <class T>` parameter, recognizable by the '<' or ','
    // immediately before) --------------------------------------------
    if ((t.text == "class" || t.text == "struct") &&
        (i == 0 || !(IsIdent(toks[i - 1], "enum") ||
                     IsPunct(toks[i - 1], "<") ||
                     IsPunct(toks[i - 1], ",")))) {
      std::string name;
      int angles = 0;
      int parens = 0;
      bool in_base_clause = false;
      size_t j = i + 1;
      for (; j < toks.size(); ++j) {
        const Token& u = toks[j];
        angles += AngleDelta(u);
        if (IsPunct(u, "(")) ++parens;
        if (IsPunct(u, ")")) --parens;
        if (angles > 0 || parens > 0) continue;
        if (u.kind == TokKind::kIdentifier && !in_base_clause &&
            u.text != "final") {
          name = u.text;  // Last plain identifier before ':' or '{'.
        }
        if (IsPunct(u, ":")) in_base_clause = true;
        if (IsPunct(u, ";")) break;  // Forward declaration.
        if (IsPunct(u, "=")) break;  // Alias.
        if (IsPunct(u, "{")) {
          int decl = -1;
          if (!name.empty()) {
            out.class_names.insert(name);
            DeclSpan body;
            body.kind = DeclSpan::Kind::kClass;
            body.name = name;
            body.line = t.line;
            body.begin = j;
            bool base = false;
            for (size_t k = i + 1; k < j; ++k) {  // Bases.
              if (toks[k].kind == TokKind::kIdentifier) {
                body.mentions.push_back(toks[k].text);
                if (base) out.class_bases[name].push_back(toks[k].text);
              }
              base |= IsPunct(toks[k], ":");
            }
            decl = static_cast<int>(out.decls.size());
            out.decls.push_back(std::move(body));
          }
          scopes.push_back({name, depth + 1, /*is_class=*/true, decl});
          ++depth;
          i = j;
          break;
        }
      }
      continue;
    }

    // ---- Function definition heads ----------------------------------
    if (!IsKeyword(t.text) && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "(")) {
      const size_t after_paren = SkipParens(toks, i + 1);
      const size_t body = FindBodyBrace(toks, after_paren);
      if (body != npos) {
        FunctionSpan fn;
        fn.name = t.text;
        fn.line = t.line;
        fn.head = i;
        std::string qual = t.text;
        size_t b = i;
        if (b > 0 && IsPunct(toks[b - 1], "~")) {
          fn.name = "~" + fn.name;
          qual = "~" + qual;
          --b;
        }
        while (b >= 2 && IsPunct(toks[b - 1], "::") &&
               toks[b - 2].kind == TokKind::kIdentifier) {
          if (fn.owner.empty()) fn.owner = toks[b - 2].text;
          qual = toks[b - 2].text + "::" + qual;
          b -= 2;
        }
        if (qual == fn.name) {
          const std::string enclosing = scope_name();
          if (!enclosing.empty()) qual = enclosing + "::" + qual;
          if (!scopes.empty() && scopes.back().is_class) {
            fn.owner = scopes.back().name;
          }
        }
        fn.qualified = qual;
        fn.body_begin = body;
        fn.body_end = toks.size();  // Fixed when the brace closes.
        out.functions.push_back(std::move(fn));
        open_fn = static_cast<int>(out.functions.size()) - 1;
        open_fn_depth = depth + 1;
        ++depth;
        i = body;  // The signature's parens were balanced; skip them.
        continue;
      }
    }
  }
  // An unterminated body (truncated file) closes at EOF: body_end
  // already points past the last token.
  for (FunctionSpan& fn : out.functions) {
    CollectMentions(toks, &fn);
    finish_mentions(&fn.mentions);
    finish_mentions(&fn.member_refs);
  }
  for (DeclSpan& decl : out.decls) finish_mentions(&decl.mentions);
  return out;
}

GraphLinkResult LinkCallGraph(
    std::vector<std::pair<std::string, FileStructure*>> files) {
  GraphLinkResult out;
  // Deterministic node order: files as given (the driver passes them
  // sorted by path), functions in definition order.
  struct Node {
    FunctionSpan* fn;
  };
  std::vector<Node> nodes;
  for (auto& [path, structure] : files) {
    out.status_fns.insert(structure->status_fns.begin(),
                          structure->status_fns.end());
    for (FunctionSpan& fn : structure->functions) {
      nodes.push_back({&fn});
    }
  }

  // Reverse edges by callee simple name: name -> callers.
  std::map<std::string, std::vector<size_t>> callers_of;
  for (size_t n = 0; n < nodes.size(); ++n) {
    for (const std::string& callee : nodes[n].fn->calls) {
      callers_of[callee].push_back(n);
    }
  }

  // BFS from the direct sinks; first marking wins, which makes every
  // witness path a shortest one (in hops) and keeps output stable.
  std::deque<size_t> frontier;
  for (size_t n = 0; n < nodes.size(); ++n) {
    FunctionSpan& fn = *nodes[n].fn;
    if (!fn.emitter_symbol.empty()) {
      fn.reaches_emission = true;
      fn.emission_path = StrCat(fn.name, " -> ", fn.emitter_symbol);
      frontier.push_back(n);
    }
  }
  while (!frontier.empty()) {
    const size_t n = frontier.front();
    frontier.pop_front();
    const auto it = callers_of.find(nodes[n].fn->name);
    if (it == callers_of.end()) continue;
    for (const size_t caller : it->second) {
      FunctionSpan& fn = *nodes[caller].fn;
      if (fn.reaches_emission) continue;
      fn.reaches_emission = true;
      fn.emission_path =
          StrCat(fn.name, " -> ", nodes[n].fn->emission_path);
      frontier.push_back(caller);
    }
  }

  // ---- Declared lock-acquisition DAG --------------------------------
  // Nodes are "Scope::member" mutex ids; HIVESIM_ACQUIRED_AFTER(x)
  // declares the edge x -> this ("x is taken first"), ACQUIRED_BEFORE
  // the reverse. A cycle means no consistent acquisition order exists:
  // the declared locking protocol can deadlock.
  const auto qualify = [](const std::string& arg, const std::string& scope) {
    if (arg.find("::") != std::string::npos || scope.empty()) return arg;
    return StrCat(scope, "::", arg);
  };
  std::map<std::string, std::set<std::string>> lock_edges;
  for (auto& [path, structure] : files) {
    for (const SyncDecl& decl : structure->sync_decls) {
      if (decl.kind != SyncDecl::Kind::kMutex) continue;
      const std::string id = qualify(decl.name, decl.scope);
      lock_edges[id];  // Ensure the node exists even without edges.
      for (const std::string& other : decl.acquired_after) {
        lock_edges[qualify(other, decl.scope)].insert(id);
      }
      for (const std::string& other : decl.acquired_before) {
        lock_edges[id].insert(qualify(other, decl.scope));
      }
    }
  }
  // Iterative DFS cycle detection (0 unvisited / 1 on stack / 2 done),
  // mirroring the module-DAG check in layering.cc.
  std::map<std::string, int> state;
  std::vector<std::string> path_stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        state[node] = 1;
        path_stack.push_back(node);
        const auto it = lock_edges.find(node);
        if (it != lock_edges.end()) {
          for (const std::string& next : it->second) {
            if (state[next] == 1) {
              // Found a cycle: slice the stack from `next` onward.
              std::string cycle;
              bool in_cycle = false;
              for (const std::string& hop : path_stack) {
                if (hop == next) in_cycle = true;
                if (in_cycle) cycle += StrCat(hop, " -> ");
              }
              cycle += next;
              if (reported.insert(cycle).second) {
                out.lock_order.push_back(
                    {"lock-order DAG", 0, "C1",
                     StrCat("declared lock acquisition order has a cycle: ",
                            cycle,
                            "; no consistent order exists, so the protocol "
                            "can deadlock — fix the HIVESIM_ACQUIRED_AFTER/"
                            "_BEFORE declarations")});
              }
              continue;
            }
            if (state[next] == 0) visit(next);
          }
        }
        path_stack.pop_back();
        state[node] = 2;
      };
  for (const auto& [node, unused] : lock_edges) {
    if (state[node] == 0) visit(node);
  }
  return out;
}

}  // namespace hivesim::lint


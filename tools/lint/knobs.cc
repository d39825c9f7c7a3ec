// Rule K1: dead knobs. A field of a `*Config`, `*Options`, `*Request` or
// `*Spec` struct is a knob: it exists so that callers can vary it. When
// no shipped node (one U1's walk reaches) writes the field, or every
// shipped writer sets it to the same literal, shipped code never varies
// it, and it belongs in a named constant.
//
// Writes are found lexically in shipped function bodies, file-scope
// initializers and macros, and the rule errs toward not flagging:
//   - `r.f = v` / `r->f = v` is a literal write when `v` is one literal
//     token (a number, string, character, `true`, `false` or `nullptr`,
//     optionally negated), and a non-literal one otherwise (a parsed or
//     flag value, a constant, an expression);
//   - compound assignment, `++`/`--`, `r.f[i] = v`, a mutating member
//     call (`r.f.push_back(...)`), `&r.f` (an out-parameter) and `r.f` as
//     a whole argument of a macro (`HIVESIM_ASSIGN_OR_RETURN(r.f, ...)`)
//     are non-literal writes;
//   - a designated initializer `.f = v` writes `f` like `r.f = v`;
//   - a positional aggregate initializer of the struct (`T{a, b}`,
//     `T t = {a, b}`, `T t(a, b)`, a container of T initialized with a
//     brace list, `return {a, b}` in a function returning T) is a
//     non-literal write of every field;
//   - a bare `f = v` in a member function of the struct itself writes it.
// When the receiver `r` is a parameter or local declared with a class
// the program defines, the write is to that class's field only (none,
// when the class is not a knob struct); otherwise it counts for every
// knob struct with a field `f`.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "lint/lint.h"

namespace hivesim::lint {

namespace {

bool IsKnobStruct(const std::string& name) {
  for (const char* suffix : {"Config", "Options", "Request", "Spec"}) {
    if (EndsWith(name, suffix)) return true;
  }
  return false;
}

/// Index of the token closing the group opened at `open` (`(`, `[` or
/// `{`); `limit` when unbalanced.
size_t MatchClose(const std::vector<Token>& toks, size_t open, size_t limit) {
  const std::string opener = toks[open].text;
  const char* closer = opener == "(" ? ")" : opener == "[" ? "]" : "}";
  int depth = 0;
  for (size_t j = open; j < limit; ++j) {
    if (toks[j].kind != TokKind::kPunct) continue;
    if (toks[j].text == opener) ++depth;
    if (toks[j].text == closer && --depth == 0) return j;
  }
  return limit;
}

/// A knob: one field of one knob struct, and the shipped writes seen.
struct Knob {
  const std::string* file = nullptr;
  int line = 0;
  std::string owner;
  std::string name;
  std::set<std::string> literals;  ///< Distinct literal values written.
  int writes = 0;
  bool varied = false;  ///< A non-literal write was seen.
};

/// Appends the data members declared directly in the class body
/// toks[open..close]: not member functions, static members, aliases or
/// nested types.
void CollectFields(const std::vector<Token>& toks, size_t open, size_t close,
                   const std::string* file, const std::string& owner,
                   std::vector<Knob>* out) {
  static const std::set<std::string>& kNotFields = *new std::set<std::string>{
      "static", "using",    "typedef", "friend",   "template", "static_assert",
      "enum",   "struct",   "class",   "union",    "virtual",  "explicit",
      "operator", "constexpr", "inline",
  };
  std::vector<size_t> stmt;  // Token indices of the current declaration.
  bool has_call = false;     // A '(' before any '=': a member function.
  bool seen_eq = false;
  const auto finish = [&]() {
    if (!stmt.empty() && !has_call &&
        toks[stmt[0]].kind == TokKind::kIdentifier &&
        kNotFields.count(toks[stmt[0]].text) == 0) {
      // Declarators split at top-level commas; each names its field just
      // before its '=', '{', '[' or ':' (or last, when it has none).
      int angles = 0;
      size_t piece_begin = 0;
      for (size_t p = 0; p <= stmt.size(); ++p) {
        const bool split =
            p == stmt.size() || (angles == 0 && IsPunct(toks[stmt[p]], ","));
        if (p < stmt.size() && !split) {
          const Token& u = toks[stmt[p]];
          if (IsPunct(u, "<")) ++angles;
          if (IsPunct(u, ">")) --angles;
          if (IsPunct(u, ">>")) angles -= 2;
          continue;
        }
        size_t name = stmt.size();
        for (size_t q = piece_begin; q < p; ++q) {
          const Token& u = toks[stmt[q]];
          if (IsPunct(u, "=") || IsPunct(u, "{") || IsPunct(u, "[") ||
              IsPunct(u, ":")) {
            break;
          }
          if (u.kind == TokKind::kIdentifier) name = q;
        }
        const bool typed = piece_begin > 0 || name > piece_begin;
        if (name < stmt.size() && typed) {
          const Token& u = toks[stmt[name]];
          out->push_back({file, u.line, owner, u.text, {}, 0, false});
        }
        piece_begin = p + 1;
      }
    }
    stmt.clear();
    has_call = false;
    seen_eq = false;
  };
  for (size_t j = open + 1; j < close; ++j) {
    const Token& t = toks[j];
    if (t.kind == TokKind::kIdentifier &&
        (t.text == "public" || t.text == "private" || t.text == "protected") &&
        j + 1 < close && IsPunct(toks[j + 1], ":")) {
      ++j;
      continue;
    }
    if (IsPunct(t, "{")) {
      const size_t end = MatchClose(toks, j, close);
      const bool body =
          has_call ||
          (!stmt.empty() && kNotFields.count(toks[stmt[0]].text) > 0);
      if (body) {
        stmt.clear();
        has_call = false;
        seen_eq = false;
      } else {
        stmt.push_back(j);  // A brace initializer ends the declarator.
      }
      j = end;
      continue;
    }
    if (IsPunct(t, ";")) {
      finish();
      continue;
    }
    if (IsPunct(t, "=")) seen_eq = true;
    if (IsPunct(t, "(")) {
      // Before '=': a member function. After: a call in the default
      // value, whose commas do not split declarators.
      has_call |= !seen_eq;
      if (seen_eq) stmt.push_back(j);
      j = MatchClose(toks, j, close);
      continue;
    }
    stmt.push_back(j);
  }
}

/// The one literal token starting at `from` and ending at a top-level
/// `;`, `,`, `)` or `}`; nullopt for anything longer.
std::optional<std::string> LiteralAt(const std::vector<Token>& toks,
                                     size_t from, size_t limit) {
  std::string sign;
  if (from < limit && IsPunct(toks[from], "-")) {
    sign = "-";
    ++from;
  }
  if (from + 1 >= limit) return std::nullopt;
  const Token& next = toks[from + 1];
  if (!(IsPunct(next, ";") || IsPunct(next, ",") || IsPunct(next, ")") ||
        IsPunct(next, "}"))) {
    return std::nullopt;
  }
  const Token& t = toks[from];
  switch (t.kind) {
    case TokKind::kNumber:
      return sign + t.text;
    case TokKind::kString:
      if (sign.empty()) return StrCat("\"", t.text, "\"");
      return std::nullopt;
    case TokKind::kCharLit:
      if (sign.empty()) return StrCat("'", t.text, "'");
      return std::nullopt;
    case TokKind::kIdentifier:
      if (sign.empty() &&
          (t.text == "true" || t.text == "false" || t.text == "nullptr")) {
        return t.text;
      }
      return std::nullopt;
    case TokKind::kPunct:
      return std::nullopt;
  }
  return std::nullopt;
}

/// Index of the first token of the receiver chain ending at field `j`
/// (`a.b->f` -> the index of `a`).
size_t ChainStart(const std::vector<Token>& toks, size_t j, size_t begin) {
  while (j >= begin + 2 && IsMemberAccess(toks[j - 1]) &&
         toks[j - 2].kind == TokKind::kIdentifier) {
    j -= 2;
  }
  return j;
}

/// A write of the variable or member named at toks[j]; `literal` is set
/// when the value written is one literal token.
struct Write {
  std::optional<std::string> literal;
};

std::optional<Write> WriteOf(const std::vector<Token>& toks, size_t j,
                             size_t end) {
  const auto at = [&](size_t k, const char* text) {
    return k < end && IsPunct(toks[k], text);
  };
  if (at(j + 1, "=") && !at(j + 2, "=")) {
    return Write{LiteralAt(toks, j + 2, end)};
  }
  for (const char* op : {"+", "-", "*", "/", "%", "|", "&", "^", "<<", ">>"}) {
    if (at(j + 1, op) && at(j + 2, "=")) return Write{};
  }
  if ((at(j + 1, "+") && at(j + 2, "+")) ||
      (at(j + 1, "-") && at(j + 2, "-"))) {
    return Write{};
  }
  if (at(j + 1, "[")) {
    const size_t close = MatchClose(toks, j + 1, end);
    if (at(close + 1, "=") && !at(close + 2, "=")) return Write{};
    return std::nullopt;
  }
  static const std::set<std::string>& kMutators = *new std::set<std::string>{
      "push_back", "emplace_back", "insert", "emplace", "assign", "resize",
      "clear",     "append",       "erase",  "swap",    "push",   "pop_back",
  };
  if (j + 3 < end && IsMemberAccess(toks[j + 1]) &&
      kMutators.count(toks[j + 2].text) > 0 && IsPunct(toks[j + 3], "(")) {
    return Write{};
  }
  return std::nullopt;
}

class WriteScanner {
 public:
  WriteScanner(std::vector<Knob>* knobs, std::set<std::string> classes,
               std::set<std::string> macros)
      : classes_(std::move(classes)), macros_(std::move(macros)) {
    for (Knob& knob : *knobs) {
      by_field_[knob.name].push_back(&knob);
      by_struct_[knob.owner].push_back(&knob);
    }
  }

  void ScanFunction(const std::vector<Token>& toks, const FunctionSpan& fn) {
    // The return type: the tokens of the head before the name.
    std::set<std::string> returns;
    for (size_t b = fn.head; b > 0; --b) {
      const Token& p = toks[b - 1];
      if (IsPunct(p, ";") || IsPunct(p, "{") || IsPunct(p, "}") ||
          IsPunct(p, ":")) {
        break;
      }
      if (p.kind == TokKind::kIdentifier && by_struct_.count(p.text) > 0) {
        returns.insert(p.text);
      }
    }
    const size_t end = std::min(fn.body_end, toks.size());
    const auto own = by_struct_.find(fn.owner);
    for (size_t j = fn.head + 1; j < end; ++j) {
      if (toks[j].kind == TokKind::kIdentifier && toks[j].text == "return" &&
          j + 1 < end && IsPunct(toks[j + 1], "{")) {
        for (const std::string& type : returns) {
          Positional(toks, j + 1, end, type);
        }
        continue;
      }
      ScanToken(toks, fn.head + 1, j, end, &fn.locals);
      if (own == by_struct_.end() || toks[j].kind != TokKind::kIdentifier ||
          IsMemberAccess(toks[j - 1]) || IsPunct(toks[j - 1], "::")) {
        continue;
      }
      for (Knob* knob : own->second) {
        if (knob->name == toks[j].text) WriteAt(toks, j, end, {knob});
      }
    }
  }

  void ScanRange(const std::vector<Token>& toks, size_t begin, size_t end) {
    end = std::min(end, toks.size());
    for (size_t j = begin; j < end; ++j) {
      ScanToken(toks, begin, j, end, nullptr);
    }
  }

 private:
  void Record(const std::vector<Knob*>& targets,
              const std::optional<std::string>& literal) {
    for (Knob* knob : targets) {
      ++knob->writes;
      if (literal) {
        knob->literals.insert(*literal);
      } else {
        knob->varied = true;
      }
    }
  }

  /// A positional brace list opening at `brace` writes every field.
  void Positional(const std::vector<Token>& toks, size_t brace, size_t end,
                  const std::string& type) {
    if (brace + 1 >= end || IsPunct(toks[brace + 1], "}") ||
        IsPunct(toks[brace + 1], ")") || IsPunct(toks[brace + 1], ".")) {
      return;  // Value-initialized, or designated (seen field by field).
    }
    const auto it = by_struct_.find(type);
    if (it != by_struct_.end()) Record(it->second, std::nullopt);
  }

  /// Records what `toks[j]`, a mention of a field, writes, if anything.
  /// A write to a member of the field (`r.f.kind = v`) varies the field.
  void WriteAt(const std::vector<Token>& toks, size_t j, size_t end,
               const std::vector<Knob*>& targets) {
    size_t k = j;
    while (k + 2 < end && IsMemberAccess(toks[k + 1]) &&
           toks[k + 2].kind == TokKind::kIdentifier &&
           !(k + 3 < end && IsPunct(toks[k + 3], "("))) {
      k += 2;
    }
    const std::optional<Write> write = WriteOf(toks, k, end);
    if (!write) return;
    Record(targets, k == j ? write->literal : std::nullopt);
  }

  /// True when toks[from..to] is a whole argument of a macro call.
  bool MacroArgument(const std::vector<Token>& toks, size_t begin,
                     size_t from, size_t to, size_t end) const {
    if (from <= begin || to + 1 >= end) return false;
    if (!IsPunct(toks[from - 1], "(") && !IsPunct(toks[from - 1], ",")) {
      return false;
    }
    if (!IsPunct(toks[to + 1], ")") && !IsPunct(toks[to + 1], ",")) {
      return false;
    }
    int depth = 0;
    for (size_t k = from; k > begin; --k) {
      const Token& p = toks[k - 1];
      if (IsPunct(p, ")")) ++depth;
      if (IsPunct(p, "(") && depth-- == 0) {
        return k >= 2 && macros_.count(toks[k - 2].text) > 0;
      }
      if (depth == 0 && (IsPunct(p, ";") || IsPunct(p, "{"))) return false;
    }
    return false;
  }

  void ScanToken(const std::vector<Token>& toks, size_t begin, size_t j,
                 size_t end,
                 const std::map<std::string, std::string>* locals) {
    const Token& t = toks[j];
    if (t.kind != TokKind::kIdentifier) return;
    const auto knob_struct = by_struct_.find(t.text);
    if (knob_struct != by_struct_.end()) {
      Construction(toks, j, end, t.text);
      return;
    }
    const auto field = by_field_.find(t.text);
    if (field == by_field_.end() || j < 2 || !IsMemberAccess(toks[j - 1])) {
      return;
    }
    const Token& before = toks[j - 2];
    if (IsPunct(before, "{") || IsPunct(before, ",")) {
      // Designated initializer: `{.f = v, .g = w}`.
      if (IsPunct(toks[j - 1], ".")) WriteAt(toks, j, end, field->second);
      return;
    }
    std::vector<Knob*> targets = field->second;
    const size_t chain = ChainStart(toks, j, begin);
    if (locals != nullptr && chain + 2 == j) {
      const auto local = locals->find(before.text);
      if (local != locals->end() && classes_.count(local->second) > 0) {
        targets.clear();
        const auto type = by_struct_.find(local->second);
        if (type != by_struct_.end()) {
          for (Knob* knob : type->second) {
            if (knob->name == t.text) targets.push_back(knob);
          }
        }
        if (targets.empty()) return;
      }
    }
    // `&r.f`: an out-parameter.
    if (chain >= begin + 2 && IsPunct(toks[chain - 1], "&") &&
        toks[chain - 2].kind == TokKind::kPunct &&
        !IsPunct(toks[chain - 2], ")") && !IsPunct(toks[chain - 2], "]")) {
      Record(targets, std::nullopt);
      return;
    }
    if (MacroArgument(toks, begin, chain, j, end)) {
      Record(targets, std::nullopt);
      return;
    }
    WriteAt(toks, j, end, targets);
  }

  /// `T{...}`, `T t{...}`, `T t = {...}`, `T t[] = {...}`, `T(...)`,
  /// `T t(...)`, and a container of T initialized with a brace list.
  void Construction(const std::vector<Token>& toks, size_t j, size_t end,
                    const std::string& type) {
    size_t k = j + 1;
    if (k < end && (IsPunct(toks[k], ">") || IsPunct(toks[k], ","))) {
      // `std::vector<T> v = {...}` / `std::array<T, 3>{...}`; a '('
      // first means a call (`std::get<T>(v)`), not an initializer.
      for (; k < end && !IsPunct(toks[k], ";") && !IsPunct(toks[k], "(");
           ++k) {
        if (IsPunct(toks[k], "{")) {
          Positional(toks, k, end, type);
          return;
        }
      }
      return;
    }
    if (k < end && toks[k].kind == TokKind::kIdentifier) ++k;
    if (k < end && IsPunct(toks[k], "[")) k = MatchClose(toks, k, end) + 1;
    if (k < end && IsPunct(toks[k], "=")) ++k;
    if (k >= end) return;
    if (IsPunct(toks[k], "{")) {
      Positional(toks, k, end, type);
    } else if (IsPunct(toks[k], "(") && k + 1 < end &&
               !IsPunct(toks[k + 1], ")")) {
      Positional(toks, k, end, type);
    }
  }

  std::set<std::string> classes_;
  std::set<std::string> macros_;
  std::map<std::string, std::vector<Knob*>> by_field_;
  std::map<std::string, std::vector<Knob*>> by_struct_;
};

}  // namespace

std::vector<Diagnostic> CheckDeadKnobs(
    const std::vector<ProgramFile>& files,
    const std::vector<ShippedNode>& shipped,
    const std::vector<std::string>& entry_roots,
    const std::string& library_dir) {
  std::vector<Knob> knobs;
  std::set<std::string> classes;
  std::set<std::string> macros;
  for (const ProgramFile& file : files) {
    classes.insert(file.structure->class_names.begin(),
                   file.structure->class_names.end());
    for (const DeclSpan& decl : file.structure->decls) {
      if (decl.kind == DeclSpan::Kind::kMacro) macros.insert(decl.name);
    }
    if (!UnderDir(file.path, library_dir)) continue;
    for (const DeclSpan& decl : file.structure->decls) {
      if (decl.kind != DeclSpan::Kind::kClass || !IsKnobStruct(decl.name)) {
        continue;
      }
      CollectFields(file.lex->tokens, decl.begin, decl.end, &file.path,
                    decl.name, &knobs);
    }
  }
  WriteScanner scanner(&knobs, std::move(classes), std::move(macros));
  for (const ShippedNode& node : shipped) {
    const std::vector<Token>& toks = node.file->lex->tokens;
    if (node.fn != nullptr) {
      scanner.ScanFunction(toks, *node.fn);
    } else if (node.decl->kind != DeclSpan::Kind::kClass) {
      scanner.ScanRange(toks, node.decl->begin, node.decl->end + 1);
    }
  }

  const std::string root_list = EntryRootList(entry_roots);
  std::vector<Diagnostic> out;
  for (const Knob& knob : knobs) {
    if (knob.varied || knob.literals.size() > 1) continue;
    const std::string what =
        knob.literals.empty()
            ? StrCat("is never written by shipped code (", root_list, ")")
            : StrCat("is set to ", *knob.literals.begin(),
                     " by every shipped write (", knob.writes, " in ",
                     root_list, ")");
    out.push_back(
        {*knob.file, knob.line, "K1",
         StrCat("'", knob.owner, "::", knob.name, "' ", what,
                "; make it a named constant, or name its callers in "
                "'hivesim-lint: allow(K1) reason=<why>'")});
  }
  return out;
}

}  // namespace hivesim::lint

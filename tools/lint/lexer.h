#ifndef HIVESIM_TOOLS_LINT_LEXER_H_
#define HIVESIM_TOOLS_LINT_LEXER_H_

#include <string>
#include <vector>

namespace hivesim::lint {

/// Token kinds the rules care about. The lexer is not a full C++
/// front end: it only needs to distinguish identifiers from the
/// literals and punctuation around them so rules can match *code*
/// (identifier tokens) without tripping on the same words inside
/// strings or comments.
enum class TokKind {
  kIdentifier,
  kNumber,
  kString,  ///< text holds the literal's contents (no quotes).
  kCharLit,
  kPunct,  ///< one of the multi-char operators below, or a single char.
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

/// A `// hivesim-lint: allow(<rule>) reason=...` suppression comment.
/// Malformed pragmas are surfaced as diagnostics by the driver so a
/// typo'd suppression can never silently allow a violation.
struct Pragma {
  int line = 0;
  std::string rule;    ///< e.g. "D2"; empty when malformed.
  std::string reason;  ///< text after `reason=`, trimmed.
  bool malformed = false;
  std::string error;  ///< why it is malformed.
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Pragma> pragmas;
  /// Targets of `#include "..."` directives, in order of appearance.
  std::vector<std::string> quoted_includes;
};

inline bool IsPunct(const Token& tok, const char* text) {
  return tok.kind == TokKind::kPunct && tok.text == text;
}

/// `.` or `->`.
inline bool IsMemberAccess(const Token& tok) {
  return IsPunct(tok, ".") || IsPunct(tok, "->");
}

/// Tokenizes one source file. Comments and whitespace are consumed
/// (comments are scanned for lint pragmas first); string/char literals
/// become single tokens; `::`, `->`, `<<`, `>>` stay fused so rules can
/// tell `std::foo` and stream inserts apart from template brackets.
LexedFile Lex(const std::string& content);

}  // namespace hivesim::lint

#endif  // HIVESIM_TOOLS_LINT_LEXER_H_

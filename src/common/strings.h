#ifndef HIVESIM_COMMON_STRINGS_H_
#define HIVESIM_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hivesim {

/// printf-style formatting into a std::string. The toolchain lacks
/// `<format>` (GCC 12), so this is the project-wide formatting helper.
/// Formats once into a stack buffer; only a result longer than that
/// buffer pays a second `vsnprintf`.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Append helpers for hot output paths (trace rendering, JSON numbers,
// recording sites). Each appends exactly the bytes the named printf
// conversion writes in the "C" locale — the C++ standard defines
// `std::to_chars` with an explicit format and precision that way — so
// switching a call site from StrFormat to these never moves an output
// byte. tests/format_test.cc holds them to snprintf bit for bit.

/// Appends `value` as `%.<precision>f` ("1.500000", "-inf", "nan").
void AppendFixed(std::string* out, double value, int precision);
/// Appends `value` as `%.<precision>g` (precision >= 1).
void AppendGeneral(std::string* out, double value, int precision);
/// Appends `value` as `%lld`.
void AppendInt(std::string* out, int64_t value);
/// Appends `raw` escaped per RFC 8259 (quotes not included): `"`, `\`,
/// `\n`, `\r`, `\t` get backslash escapes, other control bytes become
/// `\u00XX`, everything else is copied.
void AppendJsonEscaped(std::string* out, std::string_view raw);

/// Concatenates the string representations of all arguments via ostream.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Splits `text` at every occurrence of `sep`; empty fields are preserved.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Lowercases and replaces every non-alphanumeric run with '_' (file
/// names derived from experiment/cell titles).
std::string Slugify(std::string_view text);

}  // namespace hivesim

#endif  // HIVESIM_COMMON_STRINGS_H_

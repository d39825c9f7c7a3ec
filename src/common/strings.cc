#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <system_error>

namespace hivesim {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  char buf[256];
  const int needed = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0 && static_cast<size_t>(needed) < sizeof(buf)) {
    out.assign(buf, static_cast<size_t>(needed));
  } else if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

namespace {

// Runs `std::to_chars(first, last, args...)` and appends the result. The
// stack buffer holds every integer and every %g form; only a %f of a
// huge magnitude (%.6f of 1.8e308 is 316 characters) misses it, and that
// retries directly in `out` with room for the widest possible result
// instead of truncating.
template <typename... Args>
void AppendToChars(std::string* out, Args... args) {
  char buf[64];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), args...);
  if (r.ec == std::errc()) {
    out->append(buf, r.ptr);
    return;
  }
  for (size_t room = 512;; room *= 2) {
    const size_t old_size = out->size();
    out->resize(old_size + room);
    char* const first = out->data() + old_size;
    const std::to_chars_result big =
        std::to_chars(first, first + room, args...);
    if (big.ec == std::errc()) {
      out->resize(static_cast<size_t>(big.ptr - out->data()));
      return;
    }
    out->resize(old_size);
  }
}

}  // namespace

void AppendFixed(std::string* out, double value, int precision) {
  AppendToChars(out, value, std::chars_format::fixed, precision);
}

void AppendGeneral(std::string* out, double value, int precision) {
  AppendToChars(out, value, std::chars_format::general, precision);
}

void AppendInt(std::string* out, int64_t value) {
  AppendToChars(out, value);
}

void AppendJsonEscaped(std::string* out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run_start = 0;  // First byte not yet appended.
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto byte = static_cast<unsigned char>(raw[i]);
    if (byte >= 0x20 && byte != '"' && byte != '\\') continue;
    out->append(raw.data() + run_start, i - run_start);
    run_start = i + 1;
    switch (byte) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        const char escaped[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                                kHex[byte & 0xf]};
        out->append(escaped, sizeof(escaped));
      }
    }
  }
  out->append(raw.data() + run_start, raw.size() - run_start);
}

std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> StrSplit(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Slugify(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool last_was_sep = true;  // Suppress a leading '_'.
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      last_was_sep = false;
    } else if (!last_was_sep) {
      out += '_';
      last_was_sep = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace hivesim

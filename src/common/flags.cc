#include "common/flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace hivesim {

Result<int> ParseIntArg(std::string_view what, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      v < INT_MIN || v > INT_MAX) {
    return Status::InvalidArgument(
        StrCat(what, " expects an integer, got '", text, "'"));
  }
  return static_cast<int>(v);
}

Result<uint64_t> ParseUint64Arg(std::string_view what,
                                const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // strtoull accepts (and negates) a leading '-'; a seed never has one.
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    return Status::InvalidArgument(
        StrCat(what, " expects an unsigned integer, got '", text, "'"));
  }
  return static_cast<uint64_t>(v);
}

Result<double> ParseDoubleArg(std::string_view what, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    return Status::InvalidArgument(
        StrCat(what, " expects a number, got '", text, "'"));
  }
  return v;
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    if (arg.empty()) {
      return Status::InvalidArgument("empty flag name ('--')");
    }
    const size_t eq = arg.find('=');
    std::string name;
    std::string value;
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      if (name.empty()) return Status::InvalidArgument("empty flag name");
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      // "--flag value" when the next token is not a flag; bare "--flag"
      // otherwise (boolean).
      name = std::move(arg);
      value = argv[++i];
    } else {
      name = std::move(arg);
      value = "true";
    }
    // A repeated flag is always a mistake (a typo'd sweep axis would
    // silently drop the first value and run the wrong grid): refuse
    // loudly instead of letting the last occurrence win.
    if (values_.count(name) > 0) {
      return Status::InvalidArgument(
          StrCat("flag --", name, " given more than once"));
    }
    values_.emplace(std::move(name), std::move(value));
  }
  return Status::OK();
}

std::string FlagSet::GetString(const std::string& name,
                               const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

Result<int> FlagSet::GetInt(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseIntArg(StrCat("flag --", name), it->second);
}

Result<double> FlagSet::GetDouble(const std::string& name,
                                  double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return ParseDoubleArg(StrCat("flag --", name), it->second);
}

bool FlagSet::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

Status FlagSet::CheckKnown(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument(StrCat("unknown flag --", name));
    }
  }
  return Status::OK();
}

}  // namespace hivesim

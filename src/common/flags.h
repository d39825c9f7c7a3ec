#ifndef HIVESIM_COMMON_FLAGS_H_
#define HIVESIM_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace hivesim {

/// Strict parsers for one command-line value (a flag's text or a
/// positional argument): all of `text` must be the number, else
/// InvalidArgument "<what> expects ..., got '<text>'". No silent
/// default, no trailing junk, no out-of-range wrap, no NaN or inf.
Result<int> ParseIntArg(std::string_view what, const std::string& text);
Result<uint64_t> ParseUint64Arg(std::string_view what,
                                const std::string& text);
Result<double> ParseDoubleArg(std::string_view what, const std::string& text);

/// Minimal command-line parser for the CLI tool and examples. Accepts
/// `--flag=value`, `--flag value`, and bare `--flag` (boolean true);
/// everything else is a positional argument.
///
///   FlagSet flags;
///   auto status = flags.Parse(argc, argv);
///   flags.GetString("model", "CONV");
///   flags.GetInt("tbs", 32768);
///   flags.positional();  // e.g. the subcommand
class FlagSet {
 public:
  /// Parses argv[1..). Returns InvalidArgument on a malformed flag
  /// (empty name) or a flag given more than once (a repeated flag is
  /// always a typo; last-one-wins would silently run the wrong thing).
  /// Unknown flags are accepted here — callers validate the full set
  /// with `CheckKnown` and must reject leftovers loudly.
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters with defaults; numeric getters return InvalidArgument
  /// if the value does not parse.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  Result<int> GetInt(const std::string& name, int fallback) const;
  Result<double> GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// InvalidArgument naming the first flag not in `known`.
  Status CheckKnown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hivesim

#endif  // HIVESIM_COMMON_FLAGS_H_

// Knob structs for the K1 fixtures: k1/tools/ is the shipped entry
// point, k1/tests/ a test that is not one.
#ifndef K1_KNOBS_H_
#define K1_KNOBS_H_

namespace k1 {

/// The tool sets `rounds` from its arguments; only a test sets
/// `unwritten`.
struct UnwrittenConfig {
  int rounds = 3;
  int unwritten = 1;
};

/// Both shipped writers set `same` to 8.
struct SameLiteralOptions {
  int same = 2;
};

/// Shipped writers set `varied` to 4 and to 5. Its default value is a
/// call, whose comma does not declare a second field.
struct TwoLiteralRequest {
  int varied = Max(kLowest, kHighest);
};

/// Only a positional aggregate initializer writes these.
struct PositionalSpec {
  int rows = 0;
  int cols = 0;
};

/// Nothing shipped writes it, and a pragma names its callers.
struct AllowedConfig {
  // hivesim-lint: allow(K1) reason=the next release's exporter sets it
  int reserved = 0;
};

int Run(const UnwrittenConfig& config, const SameLiteralOptions& options,
        const TwoLiteralRequest& request, const PositionalSpec& spec,
        const AllowedConfig& allowed);

}  // namespace k1

#endif  // K1_KNOBS_H_

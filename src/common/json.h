#ifndef HIVESIM_COMMON_JSON_H_
#define HIVESIM_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hivesim {

/// Minimal streaming JSON document builder (write-only) for exporting
/// experiment results to tooling. Produces compact, correctly escaped
/// JSON; parsing lives separately in common/json_parse.h.
///
///   JsonWriter json;
///   json.BeginObject();
///   json.Key("sps").Number(261.9);
///   json.Key("fleet").BeginArray().String("gc-t4").EndArray();
///   json.EndObject();
///   json.ToString();  // {"sps":261.9,"fleet":["gc-t4"]}
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Emits an object key; must be followed by exactly one value.
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  /// Emits a number that round-trips: integral values up to 2^53 in
  /// magnitude as plain integers (no exponent), everything else as the
  /// shortest decimal that parses back to exactly the same double.
  /// Non-finite values become null (JSON has no Inf/NaN).
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);

  /// The document so far.
  const std::string& ToString() const { return out_; }

 private:
  void MaybeComma();

  std::string out_;
  // Stack of "needs a comma before the next element" per open container.
  std::vector<bool> pending_comma_;
  bool after_key_ = false;
};

}  // namespace hivesim

#endif  // HIVESIM_COMMON_JSON_H_

#include "common/json.h"

#include <charconv>
#include <cmath>

#include "common/strings.h"

namespace hivesim {

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;  // A value right after a key never takes a comma.
  }
  if (!pending_comma_.empty()) {
    if (pending_comma_.back()) out_ += ',';
    pending_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  pending_comma_.push_back(false);
  return *this;
}
// (Key() resets after_key_, so nested containers after keys are handled
// by the shared MaybeComma path.)

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  if (!pending_comma_.empty()) pending_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  pending_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  if (!pending_comma_.empty()) pending_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  MaybeComma();
  out_ += '"';
  AppendJsonEscaped(&out_, name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  AppendJsonEscaped(&out_, value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no Inf/NaN.
    return *this;
  }
  // Integral values in the exactly-representable range print as plain
  // integers: counters routinely exceed 10 significant digits (WAN byte
  // totals pass 1e10 within a simulated day), where a fixed %g precision
  // would silently round.
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53.
  if (value == std::floor(value) && std::fabs(value) <= kMaxExactInt) {
    AppendFixed(&out_, value, 0);
    return *this;
  }
  // Otherwise the shortest of %.15g/%.16g/%.17g that parses back to
  // exactly this double (17 significant digits always suffice for IEEE
  // binary64). The candidate is written in place and cut back when it
  // does not round-trip.
  const size_t start = out_.size();
  for (int precision = 15; precision < 17; ++precision) {
    AppendGeneral(&out_, value, precision);
    double parsed = 0;
    std::from_chars(out_.data() + start, out_.data() + out_.size(), parsed);
    if (parsed == value) return *this;
    out_.resize(start);
  }
  AppendGeneral(&out_, value, 17);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  AppendInt(&out_, value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

}  // namespace hivesim

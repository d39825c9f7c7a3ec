#include "common/json.h"

#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace hivesim {

std::string JsonWriter::Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

JsonWriter& JsonWriter::Key(const std::string& name) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(value);
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
    out_ += StrFormat("%.0f", value);
    return *this;
  }
  // Otherwise the shortest decimal that parses back to exactly this
  // double (17 significant digits always suffice for IEEE binary64).
  for (int precision = 15; precision <= 17; ++precision) {
    std::string text = StrFormat("%.*g", precision, value);
    if (std::strtod(text.c_str(), nullptr) == value) {
      out_ += text;
      return *this;
    }
  }
  out_ += StrFormat("%.17g", value);  // Unreachable; %.17g round-trips.
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  MaybeComma();
  out_ += StrFormat("%lld", static_cast<long long>(value));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
  return *this;
}

}  // namespace hivesim

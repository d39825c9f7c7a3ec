#include "common/json_parse.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/status.h"

namespace hivesim {
namespace {

/// Hand-rolled recursive-descent JSON parser. Scope is deliberately
/// narrow: strict JSON (no comments, no trailing commas), doubles for
/// all numbers, and `\uXXXX` escapes decoded as UTF-8. That covers
/// everything `JsonWriter` can emit, which is the only dialect the
/// perf-gate ever reads.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    Status status = ParseValue(value, /*depth=*/0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(std::string_view message) const {
    std::ostringstream out;
    out << "JSON parse error at offset " << pos_ << ": " << message;
    return Status::InvalidArgument(out.str());
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    out.offset = pos_;
    switch (text_[pos_]) {
      case 'n':
        if (!ConsumeLiteral("null")) return Error("expected 'null'");
        out.kind = JsonValue::Kind::kNull;
        return Status::OK();
      case 't':
        if (!ConsumeLiteral("true")) return Error("expected 'true'");
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = true;
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("expected 'false'");
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = false;
        return Status::OK();
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.string_value);
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Error("expected a value");
    // strtod needs a NUL-terminated buffer; the token is short.
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Error("malformed number");
    }
    // JSON has no infinity: a literal that overflows a double (1e999)
    // could only be written back as `null`.
    if (!std::isfinite(value)) {
      pos_ = start;
      return Error("number out of range");
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number_value = value;
    return Status::OK();
  }

  Status ParseString(std::string& out) {
    ++pos_;  // Opening quote.
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          if (Status status = ParseHex4(code); !status.ok()) return status;
          AppendUtf8(out, code);
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
  }

  Status ParseHex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return Status::OK();
  }

  static void AppendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      // Surrogate pairs are not recombined — JsonWriter never emits
      // them (it escapes only control characters, which are < 0x80).
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['.
    out.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      JsonValue element;
      if (Status status = ParseValue(element, depth + 1); !status.ok()) {
        return status;
      }
      out.array.push_back(std::move(element));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Status::OK();
      if (c != ',') {
        --pos_;
        return Error("expected ',' or ']' in array");
      }
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'.
    out.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected string key in object");
      }
      std::string key;
      if (Status status = ParseString(key); !status.ok()) return status;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      JsonValue value;
      if (Status status = ParseValue(value, depth + 1); !status.ok()) {
        return status;
      }
      out.object[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Status::OK();
      if (c != ',') {
        --pos_;
        return Error("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IOError("cannot read " + path);
  Result<JsonValue> parsed = ParseJson(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace hivesim

// Differential oracle for the printf-free formatting helpers
// (common/strings.h) and the number path of JsonWriter: over more than a
// million seeded doubles, every helper must write exactly the bytes
// snprintf writes for the conversion it stands in for. snprintf is the
// reference here and only here; the program itself formats with
// std::to_chars.

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/strings.h"

namespace hivesim {
namespace {

std::string Printf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::string Printf(const char* fmt, ...) {
  char buf[512];  // Fits every conversion below: %.40f of DBL_MAX is 350.
  va_list args;
  va_start(args, fmt);
  const int written = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  EXPECT_LT(written, static_cast<int>(sizeof(buf)));
  return std::string(buf, static_cast<size_t>(written));
}

// JsonWriter::Number as it was written with StrFormat and strtod, given
// the value's %.0f and %.15g/%.16g/%.17g texts.
std::string ReferenceJsonNumber(double value, const std::string& fixed0,
                                const std::string* general15to17) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::fabs(value) <= 9007199254740992.0) {
    return fixed0;
  }
  for (int i = 0; i < 3; ++i) {
    const std::string& text = general15to17[i];
    if (std::strtod(text.c_str(), nullptr) == value) return text;
  }
  return general15to17[2];
}

double FromBits(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Checks every double conversion on `value`; returns false (after one
// gtest failure) on the first mismatch so a broken helper does not flood
// the log with a million failures.
bool MatchesPrintf(double value) {
  const std::string want_fixed6 = Printf("%.6f", value);
  const std::string want_fixed0 = Printf("%.0f", value);
  const std::string want_general[3] = {Printf("%.15g", value),
                                       Printf("%.16g", value),
                                       Printf("%.17g", value)};
  const std::string want_json =
      ReferenceJsonNumber(value, want_fixed0, want_general);
  std::string fixed6;
  AppendFixed(&fixed6, value, 6);
  std::string fixed0;
  AppendFixed(&fixed0, value, 0);
  std::string general[3];
  for (int i = 0; i < 3; ++i) AppendGeneral(&general[i], value, 15 + i);
  JsonWriter json;
  json.Number(value);
  const bool ok = fixed6 == want_fixed6 && fixed0 == want_fixed0 &&
                  general[0] == want_general[0] &&
                  general[1] == want_general[1] &&
                  general[2] == want_general[2] &&
                  json.ToString() == want_json;
  if (!ok) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    ADD_FAILURE() << "bits 0x" << std::hex << bits << std::dec
                  << ": %.6f '" << fixed6 << "' vs '" << want_fixed6
                  << "', %.0f '" << fixed0 << "' vs '" << want_fixed0
                  << "', %.15g '" << general[0] << "' vs '" << want_general[0]
                  << "', %.16g '" << general[1] << "' vs '" << want_general[1]
                  << "', %.17g '" << general[2] << "' vs '" << want_general[2]
                  << "', json '" << json.ToString() << "' vs '" << want_json
                  << "'";
  }
  return ok;
}

void ExpectAllMatch(const std::vector<double>& values) {
  for (const double value : values) {
    if (!MatchesPrintf(value)) return;
  }
}

TEST(FormatTest, SpecialValuesMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectAllMatch({0.0, -0.0, inf, -inf, nan, -nan, DBL_MAX, -DBL_MAX,
                  DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 0.5, 1.5,
                  2.5, -0.5, 0.0000005, 0.0000015, 1e-7, 123456.7890125,
                  9007199254740992.0, 9007199254740993.0, 1e15, 1e16, 1e17,
                  0.1, 0.2, 0.3, 1.0 / 3.0});
}

TEST(FormatTest, RandomBitPatternsMatchPrintf) {
  // Every exponent, both signs, NaN payloads and infinities included.
  std::mt19937_64 rng(20261019);
  std::vector<double> values(200000);
  for (double& v : values) v = FromBits(rng());
  ExpectAllMatch(values);
}

TEST(FormatTest, SubnormalsMatchPrintf) {
  std::mt19937_64 rng(7);
  std::vector<double> values(100000);
  for (double& v : values) {
    const uint64_t mantissa = rng() & ((uint64_t{1} << 52) - 1);
    const uint64_t sign = rng() & (uint64_t{1} << 63);
    v = FromBits(sign | mantissa);
  }
  ExpectAllMatch(values);
}

TEST(FormatTest, IntegersAroundTwoToThe53MatchPrintf) {
  std::mt19937_64 rng(53);
  std::vector<double> values;
  const double two53 = 9007199254740992.0;
  for (int k = -50000; k <= 50000; k += 2) {
    values.push_back(two53 + k);
    values.push_back(-(two53 + k));
  }
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<double>(static_cast<int64_t>(rng())));
  }
  ExpectAllMatch(values);
}

TEST(FormatTest, TraceMicrosecondsMatchPrintf) {
  // Trace timestamps: seconds of simulated time times 1e6, up to 1e13 us
  // (about 116 simulated days), both raw and already canonical.
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> seconds(0.0, 1e7);
  std::vector<double> values;
  for (int i = 0; i < 200000; ++i) {
    const double us = seconds(rng) * 1e6;
    values.push_back(us);
    values.push_back(std::strtod(Printf("%.6f", us).c_str(), nullptr));
  }
  ExpectAllMatch(values);
}

TEST(FormatTest, ShortestForms15To17DigitsMatchPrintf) {
  // Decimal strings with 15, 16 and 17 significant digits parse to
  // doubles whose shortest round-tripping %g form is that long (or
  // shorter), so every branch of JsonWriter::Number's 15/16/17 loop runs.
  std::mt19937_64 rng(1517);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::vector<double> values;
  int chosen[18] = {};
  for (int digits = 15; digits <= 17; ++digits) {
    for (int i = 0; i < 70000; ++i) {
      std::string text = "0.";
      text += static_cast<char>('1' + rng() % 9);
      for (int d = 1; d < digits; ++d) {
        text += static_cast<char>('0' + rng() % 10);
      }
      text += "e" + std::to_string(exponent(rng));
      const double value = std::strtod(text.c_str(), nullptr);
      values.push_back(value);
      if (i >= 5000) continue;  // Enough to show each branch is taken.
      for (int p = 15; p <= 17; ++p) {
        if (std::strtod(Printf("%.*g", p, value).c_str(), nullptr) == value) {
          ++chosen[p];
          break;
        }
      }
    }
  }
  EXPECT_GT(chosen[15], 500);
  EXPECT_GT(chosen[16], 500);
  EXPECT_GT(chosen[17], 500);
  ExpectAllMatch(values);
}

TEST(FormatTest, IntegersMatchPrintf) {
  std::mt19937_64 rng(64);
  std::vector<int64_t> values = {0,
                                 1,
                                 -1,
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int32_t>::min(),
                                 std::numeric_limits<uint32_t>::max()};
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng();
    values.push_back(static_cast<int64_t>(bits >> (bits % 64)));
    values.push_back(static_cast<int64_t>(bits));
  }
  for (const int64_t value : values) {
    std::string text;
    AppendInt(&text, value);
    const std::string want = Printf("%lld", static_cast<long long>(value));
    if (text != want) {
      ADD_FAILURE() << value << ": '" << text << "' vs '" << want << "'";
      return;
    }
    JsonWriter json;
    json.Int(value);
    ASSERT_EQ(json.ToString(), want);
  }
}

TEST(FormatTest, WideFixedValuesAreNeverTruncated) {
  // %.6f of DBL_MAX is 316 characters, far past the helpers' stack
  // buffer: the result must come out whole, appended after what the
  // string already held.
  for (const double value : {DBL_MAX, -DBL_MAX, 1e300, 123456789e200}) {
    for (const int precision : {0, 6, 17, 40}) {
      std::string out = "prefix:";
      AppendFixed(&out, value, precision);
      const std::string want = Printf("%.*f", precision, value);
      EXPECT_EQ(out, "prefix:" + want) << value << " at " << precision;
    }
  }
  std::string out;
  AppendFixed(&out, DBL_MAX, 6);
  EXPECT_EQ(out.size(), 316u);
}

TEST(FormatTest, JsonEscapingMatchesPrintfEscapes) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    std::string want;
    switch (c) {
      case '"': want = "\\\""; break;
      case '\\': want = "\\\\"; break;
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default:
        want = byte < 0x20 ? Printf("\\u%04x", byte) : std::string(1, c);
    }
    std::string out = "a";
    AppendJsonEscaped(&out, std::string("x") + c + "y");
    EXPECT_EQ(out, "ax" + want + "y") << "byte " << byte;
  }
}

TEST(FormatTest, StrFormatResultLongerThanItsStackBuffer) {
  const std::string long_text(5000, 'q');
  EXPECT_EQ(StrFormat("<%s>", long_text.c_str()), "<" + long_text + ">");
  EXPECT_EQ(StrFormat("%.6f", DBL_MAX), Printf("%.6f", DBL_MAX));
  // Right at the stack buffer's edge, on both sides of it.
  for (size_t length = 250; length <= 260; ++length) {
    const std::string text(length, 'z');
    EXPECT_EQ(StrFormat("%s", text.c_str()), text);
  }
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace hivesim

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/flags.h"
#include "common/json.h"
#include "common/strings.h"

namespace hivesim {
namespace {

// --- FlagSet ---

FlagSet ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  FlagSet flags;
  EXPECT_TRUE(flags.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  return flags;
}

TEST(FlagSetTest, EqualsAndSpaceForms) {
  FlagSet flags = ParseArgs({"run", "--model=RXLM", "--tbs", "8192"});
  EXPECT_EQ(flags.positional(), std::vector<std::string>{"run"});
  EXPECT_EQ(flags.GetString("model", ""), "RXLM");
  EXPECT_EQ(flags.GetInt("tbs", 0).value(), 8192);
}

TEST(FlagSetTest, BareFlagIsBooleanTrue) {
  FlagSet flags = ParseArgs({"--verbose", "--quiet=false"});
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("quiet", true));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagSetTest, BareFlagFollowedByFlagStaysBoolean) {
  FlagSet flags = ParseArgs({"--a", "--b", "value"});
  EXPECT_EQ(flags.GetString("a", ""), "true");
  EXPECT_EQ(flags.GetString("b", ""), "value");
}

TEST(FlagSetTest, DefaultsWhenAbsent) {
  FlagSet flags = ParseArgs({});
  EXPECT_EQ(flags.GetString("x", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("n", 7).value(), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("d", 2.5).value(), 2.5);
  EXPECT_FALSE(flags.Has("x"));
}

TEST(FlagSetTest, NumericParseErrors) {
  FlagSet flags = ParseArgs({"--n=abc", "--d", "1.2.3"});
  EXPECT_EQ(flags.GetInt("n", 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(flags.GetDouble("d", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagSetTest, CheckKnownFlagsUnknown) {
  FlagSet flags = ParseArgs({"--model=CONV", "--oops=1"});
  EXPECT_TRUE(flags.CheckKnown({"model", "oops"}).ok());
  EXPECT_EQ(flags.CheckKnown({"model"}).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagSetTest, EmptyFlagNameRejected) {
  const char* argv[] = {"prog", "--"};
  FlagSet flags;
  EXPECT_EQ(flags.Parse(2, argv).code(), StatusCode::kInvalidArgument);
}

// Regression: a repeated flag used to be last-one-wins, which silently
// dropped the first value (`--tbs 8192 ... --tbs 32768` ran the wrong
// grid). Parse now refuses, naming the flag.
TEST(FlagSetTest, RepeatedFlagRejected) {
  const char* argv[] = {"prog", "--tbs=8192", "--tbs", "32768"};
  FlagSet flags;
  const Status status = flags.Parse(4, argv);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.ToString().find("--tbs"), std::string::npos);
  EXPECT_NE(status.ToString().find("more than once"), std::string::npos);
}

TEST(FlagSetTest, RepeatedFlagRejectedAcrossForms) {
  // Same flag through different syntaxes (bare boolean, then =value).
  const char* argv[] = {"prog", "--telemetry", "--telemetry=false"};
  FlagSet flags;
  EXPECT_EQ(flags.Parse(3, argv).code(), StatusCode::kInvalidArgument);
}

// --- JsonWriter ---

TEST(JsonTest, ObjectWithMixedValues) {
  JsonWriter json;
  json.BeginObject();
  json.Key("sps").Number(261.9);
  json.Key("epochs").Int(61);
  json.Key("spot").Bool(true);
  json.EndObject();
  EXPECT_EQ(json.ToString(), "{\"sps\":261.9,\"epochs\":61,\"spot\":true}");
}

TEST(JsonTest, NestedContainers) {
  JsonWriter json;
  json.BeginObject();
  json.Key("fleet").BeginArray();
  json.String("gc-t4");
  json.String("aws-t4");
  json.EndArray();
  json.Key("cost").BeginObject().Key("usd").Number(1.5).EndObject();
  json.EndObject();
  EXPECT_EQ(json.ToString(),
            "{\"fleet\":[\"gc-t4\",\"aws-t4\"],\"cost\":{\"usd\":1.5}}");
}

TEST(JsonTest, ArrayOfObjects) {
  JsonWriter json;
  json.BeginArray();
  json.BeginObject().Key("a").Int(1).EndObject();
  json.BeginObject().Key("b").Int(2).EndObject();
  json.EndArray();
  EXPECT_EQ(json.ToString(), "[{\"a\":1},{\"b\":2}]");
}

TEST(JsonTest, EscapesSpecialCharacters) {
  std::string escaped;
  AppendJsonEscaped(&escaped, "a\"b\\c\nd\te");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\te");
  escaped.clear();
  AppendJsonEscaped(&escaped, std::string(1, '\x01'));
  EXPECT_EQ(escaped, "\\u0001");
  JsonWriter json;
  json.String("quote\"inside");
  EXPECT_EQ(json.ToString(), "\"quote\\\"inside\"");
}

TEST(JsonTest, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Number(std::numeric_limits<double>::infinity());
  json.Number(std::numeric_limits<double>::quiet_NaN());
  json.Number(1.0);
  json.EndArray();
  EXPECT_EQ(json.ToString(), "[null,null,1]");
}

// Serializing and re-parsing any finite double must give back the exact
// same bits — the old %.10g silently rounded WAN byte counters past
// ~1e10 bytes in --metrics-out and merged sweep metrics.
TEST(JsonTest, NumbersRoundTripExactly) {
  const double cases[] = {
      0.0,
      -0.0,
      1.0,
      261.9,
      1.0 / 3.0,
      1e10 + 1,              // 11 significant digits: rounded by %.10g.
      98765432109876.0,      // A WAN byte counter past 1e13.
      9007199254740991.0,    // 2^53 - 1, largest odd exact integer.
      9007199254740992.0,    // 2^53.
      0.1 + 0.2,             // 0.30000000000000004: needs 17 digits.
      1.7976931348623157e308,
      5e-324,                // Smallest subnormal.
  };
  for (const double value : cases) {
    JsonWriter json;
    json.Number(value);
    const double parsed = std::strtod(json.ToString().c_str(), nullptr);
    EXPECT_EQ(parsed, value) << "serialized as " << json.ToString();
  }
}

// Integral values inside the exact range print as plain integers —
// no exponent, no rounding — so counters stay grep-able and exact.
TEST(JsonTest, IntegralNumbersPrintWithoutExponent) {
  JsonWriter json;
  json.BeginArray();
  json.Number(10000000001.0);        // 1e10 + 1: %.10g printed 1e+10.
  json.Number(98765432109876.0);
  json.Number(9007199254740991.0);
  json.Number(-12345678901234.0);
  json.EndArray();
  EXPECT_EQ(json.ToString(),
            "[10000000001,98765432109876,9007199254740991,"
            "-12345678901234]");
}

}  // namespace
}  // namespace hivesim

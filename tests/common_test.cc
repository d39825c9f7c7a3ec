#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table_writer.h"
#include "common/units.h"

namespace hivesim {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tbs");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tbs");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tbs");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status FailsThenPropagates() {
  HIVESIM_RETURN_IF_ERROR(Status::TimedOut("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kTimedOut);
}

// --- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, OkStatusDegradesToInternalError) {
  Result<int> r(Status::OK());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<double> HalfOf(Result<double> input) {
  double v = 0;
  HIVESIM_ASSIGN_OR_RETURN(v, input);
  return v / 2;
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  EXPECT_DOUBLE_EQ(HalfOf(8.0).value(), 4.0);
  EXPECT_EQ(HalfOf(Status::IOError("x")).status().code(), StatusCode::kIOError);
}

// --- Strings ---

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d GPUs at %.2f SPS", 8, 261.9), "8 GPUs at 261.90 SPS");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "-", 2.5), "a1-2.5");
}

TEST(StringsTest, StrJoinAndSplitRoundTrip) {
  std::vector<std::string> parts = {"us", "eu", "", "asia"};
  EXPECT_EQ(StrJoin(parts, ","), "us,eu,,asia");
  EXPECT_EQ(StrSplit("us,eu,,asia", ','), parts);
  EXPECT_EQ(StrSplit("", ','), std::vector<std::string>{""});
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("bench_fig1", "bench_"));
  EXPECT_FALSE(StartsWith("fig1", "bench_"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// --- Units ---

TEST(UnitsTest, RateConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(1.0), 125e6);
  EXPECT_DOUBLE_EQ(MbpsToBytesPerSec(210), 26.25e6);
  EXPECT_DOUBLE_EQ(BytesPerSecToMbps(MbpsToBytesPerSec(80)), 80);
  EXPECT_DOUBLE_EQ(BytesPerSecToGbps(GbpsToBytesPerSec(6.9)), 6.9);
}

TEST(UnitsTest, MoneyHelpers) {
  EXPECT_DOUBLE_EQ(PerHourToPerSec(3600.0), 1.0);
  // 10 GB at $0.08/GB (GC intercontinental) costs $0.80.
  EXPECT_DOUBLE_EQ(TrafficCost(10 * kGB, 0.08), 0.80);
}

TEST(UnitsTest, Formatters) {
  EXPECT_EQ(FormatBytes(1.5 * kGB), "1.50 GB");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatRate(GbpsToBytesPerSec(3.3)), "3.30 Gb/s");
  EXPECT_EQ(FormatRate(MbpsToBytesPerSec(210)), "210.0 Mb/s");
  EXPECT_EQ(FormatDuration(7200), "2.00h");
  EXPECT_EQ(FormatDuration(90), "1.5m");
  EXPECT_EQ(FormatDuration(0.5), "500.0ms");
  EXPECT_EQ(FormatDollars(1.77), "$1.770");
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.Next64() != b.Next64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int64_t n = rng.UniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(11);
  const double rate = 0.25;  // mean 4.
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.Exponential(rate);
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(RngTest, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(9);
  Rng a_fork = a.Fork();
  Rng b(9);
  Rng b_fork = b.Fork();
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a_fork.Next64(), b_fork.Next64());
  }
}

// --- TableWriter / CsvWriter ---

TEST(TableWriterTest, PrintsAlignedTable) {
  TableWriter t({"Setup", "SPS"});
  t.AddRow({"8xT4", "261.9"});
  t.AddRow({"DGX-2", "413"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Setup"), std::string::npos);
  EXPECT_NE(out.find("261.9"), std::string::npos);
  EXPECT_NE(out.find("DGX-2"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableWriterTest, CsvSkipsSeparators) {
  TableWriter t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddSeparator();
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableWriterTest, ShortRowsPadToHeaderArity) {
  TableWriter t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);  // Must not crash.
  EXPECT_EQ(t.ToCsv(), "a,b,c\nonly,,\n");
}

TEST(CsvWriterTest, NumericRows) {
  CsvWriter w({"x", "y"});
  w.AddRow(std::vector<double>{1.0, 2.5});
  w.AddRow(std::vector<std::string>{"a", "b"});
  EXPECT_EQ(w.ToString(), "x,y\n1,2.5\na,b\n");
}

// --- Logging ---

TEST(LoggingTest, LevelGate) {
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  HIVESIM_LOG(Info) << "suppressed";  // Below the gate: dropped.
}

}  // namespace
}  // namespace hivesim

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"

namespace exdl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeName(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
  EXPECT_EQ(StatusCodeName(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
}

TEST(StatusTest, GovernanceFactories) {
  EXPECT_EQ(Status::DeadlineExceeded("late").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("full").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Cancelled("stop").code(), StatusCode::kCancelled);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  EXDL_ASSIGN_OR_RETURN(int h, Half(x));
  EXDL_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Quarter(6);  // 6/2 = 3 is odd
  EXPECT_FALSE(err.ok());
}

TEST(ResultDeathTest, ValueOnErrorAbortsWithStatusMessage) {
  // value() on an error must abort in EVERY build mode (it used to be
  // assert-only, i.e. undefined behavior in release builds), and the abort
  // message must carry the status so the failure is diagnosable.
  Result<int> r = Status::NotFound("missing tuple");
  EXPECT_DEATH(r.value(), "Result::value\\(\\) on error.*missing tuple");
  const Result<int>& cr = r;
  EXPECT_DEATH(cr.value(), "NotFound: missing tuple");
  EXPECT_DEATH(Result<int>(Status::Internal("boom")).value(),
               "Internal: boom");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(17), 17u);
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringUtilTest, StrCatSizesOnce) {
  const std::string tail = std::to_string(42);
  const std::string joined =
      StrCat("longer than the small-string buffer: n", tail,
             std::string_view("/x"), "");
  EXPECT_EQ(joined, "longer than the small-string buffer: n42/x");
  EXPECT_EQ(joined.capacity(), joined.size());  // One exact allocation.
  EXPECT_EQ(StrCat("solo"), "solo");
}

TEST(StringUtilTest, SplitTrims) {
  std::vector<std::string> parts = Split(" a , b ,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,,b", ',').size(), 3u);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("magic_p", "magic_"));
  EXPECT_FALSE(StartsWith("p", "magic_"));
}

}  // namespace
}  // namespace exdl

/// \file value_roundtrip_test.cc
/// \brief Property tests for Value::Parse / Value::ToString: every int64
/// and every finite double must survive a text round trip exactly, and
/// out-of-range literals must parse to null rather than clamp to
/// plausible-looking extremes. Seeds follow the CERTFIX_PROPERTY_SEED /
/// --gtest_repeat soak idiom.

#include "relational/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "test_util.h"

namespace certfix {
namespace {

uint64_t NextSeed() { return testing_fixtures::NextPropertySeed(20260808); }

void ExpectIntRoundTrip(int64_t v) {
  Value val = Value::Int(v);
  Value back = Value::Parse(val.ToString(), DataType::kInt);
  ASSERT_TRUE(back.is_int()) << v;
  EXPECT_EQ(back.as_int(), v);
}

void ExpectDoubleRoundTrip(double d) {
  Value val = Value::Double(d);
  std::string text = val.ToString();
  Value back = Value::Parse(text, DataType::kDouble);
  ASSERT_TRUE(back.is_double()) << text;
  // Bitwise identity (covers -0.0 vs 0.0, subnormals, extremes).
  uint64_t want_bits = 0, got_bits = 0;
  double got = back.as_double();
  std::memcpy(&want_bits, &d, sizeof(d));
  std::memcpy(&got_bits, &got, sizeof(got));
  EXPECT_EQ(got_bits, want_bits) << text;
}

TEST(ValueRoundTripTest, IntBoundaries) {
  const int64_t kValues[] = {0,
                             1,
                             -1,
                             42,
                             -42,
                             std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int64_t>::max() - 1,
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::min() + 1};
  for (int64_t v : kValues) ExpectIntRoundTrip(v);
}

TEST(ValueRoundTripTest, OutOfRangeIntLiteralsParseToNull) {
  // One past INT64_MAX / below INT64_MIN, and absurd magnitudes: these
  // used to clamp to LLONG_MAX/MIN and enter the pool as plausible data.
  const char* kBad[] = {"9223372036854775808", "-9223372036854775809",
                        "99999999999999999999999999",
                        "-99999999999999999999999999"};
  for (const char* text : kBad) {
    EXPECT_TRUE(Value::Parse(text, DataType::kInt).is_null()) << text;
  }
  // The exact boundaries are still accepted.
  EXPECT_EQ(Value::Parse("9223372036854775807", DataType::kInt).as_int(),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Value::Parse("-9223372036854775808", DataType::kInt).as_int(),
            std::numeric_limits<int64_t>::min());
}

TEST(ValueRoundTripTest, DoubleSpecialValues) {
  ExpectDoubleRoundTrip(0.0);
  ExpectDoubleRoundTrip(-0.0);
  ExpectDoubleRoundTrip(1.0 / 3.0);
  ExpectDoubleRoundTrip(0.1);
  ExpectDoubleRoundTrip(std::numeric_limits<double>::max());
  ExpectDoubleRoundTrip(std::numeric_limits<double>::min());        // smallest normal
  ExpectDoubleRoundTrip(std::numeric_limits<double>::denorm_min()); // subnormal
  ExpectDoubleRoundTrip(std::numeric_limits<double>::epsilon());
  ExpectDoubleRoundTrip(1e308);
  ExpectDoubleRoundTrip(-1e308);
  ExpectDoubleRoundTrip(6.02214076e23);
  // The old "%g" (6 digits) lost all of these.
  ExpectDoubleRoundTrip(3.141592653589793);
  ExpectDoubleRoundTrip(1.0000000000000002);  // 1 + 1 ulp
}

TEST(ValueRoundTripTest, OverflowingDoubleLiteralsParseToNull) {
  EXPECT_TRUE(Value::Parse("1e999", DataType::kDouble).is_null());
  EXPECT_TRUE(Value::Parse("-1e999", DataType::kDouble).is_null());
  // Gradual underflow is NOT an error: tiny literals land on zero (or a
  // subnormal), they don't disappear into nulls.
  Value tiny = Value::Parse("1e-999", DataType::kDouble);
  ASSERT_TRUE(tiny.is_double());
  EXPECT_EQ(tiny.as_double(), 0.0);
  Value sub = Value::Parse("4.9e-324", DataType::kDouble);
  ASSERT_TRUE(sub.is_double());
  EXPECT_GT(sub.as_double(), 0.0);
}

TEST(ValueRoundTripTest, RandomInt64sRoundTrip) {
  std::mt19937_64 rng(NextSeed());
  for (int i = 0; i < 5000; ++i) {
    ExpectIntRoundTrip(static_cast<int64_t>(rng()));
  }
}

TEST(ValueRoundTripTest, RandomDoubleBitPatternsRoundTrip) {
  std::mt19937_64 rng(NextSeed());
  int tested = 0;
  while (tested < 5000) {
    uint64_t bits = rng();
    double d = 0;
    std::memcpy(&d, &bits, sizeof(d));
    if (std::isnan(d) || std::isinf(d)) continue;  // not representable in CSV
    ExpectDoubleRoundTrip(d);
    ++tested;
  }
  // Uniform magnitudes too (bit patterns are mostly extreme exponents).
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  for (int i = 0; i < 5000; ++i) {
    ExpectDoubleRoundTrip(uniform(rng));
  }
}

}  // namespace
}  // namespace certfix

#include "relational/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "relational/value_pool.h"

namespace certfix {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_int());
  EXPECT_FALSE(v.is_double());
  EXPECT_FALSE(v.is_string());
}

TEST(ValueTest, IntAccessors) {
  Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, DoubleAccessors) {
  Value v = Value::Double(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(ValueTest, StringAccessors) {
  Value v = Value::Str("Edi");
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "Edi");
  EXPECT_EQ(v.ToString(), "Edi");
}

TEST(ValueTest, NullToString) { EXPECT_EQ(Value().ToString(), "<null>"); }

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value::Int(7), Value::Int(7));
  EXPECT_NE(Value::Int(7), Value::Int(8));
  EXPECT_EQ(Value::Str("a"), Value::Str("a"));
  EXPECT_NE(Value::Str("a"), Value::Str("b"));
}

TEST(ValueTest, EqualityAcrossTypes) {
  // int 1 != string "1" != double 1.0: type-tagged equality.
  EXPECT_NE(Value::Int(1), Value::Str("1"));
  EXPECT_NE(Value::Int(1), Value::Double(1.0));
  EXPECT_NE(Value(), Value::Int(0));
}

TEST(ValueTest, NullEqualsOnlyNull) {
  EXPECT_EQ(Value(), Value());
  EXPECT_NE(Value(), Value::Str(""));
}

TEST(ValueTest, OrderingIsStrictWeak) {
  std::set<Value> s;
  s.insert(Value());
  s.insert(Value::Int(2));
  s.insert(Value::Int(1));
  s.insert(Value::Str("b"));
  s.insert(Value::Str("a"));
  s.insert(Value::Double(0.5));
  EXPECT_EQ(s.size(), 6u);
  // null < int < double < string per variant index.
  auto it = s.begin();
  EXPECT_TRUE(it->is_null());
  ++it;
  EXPECT_EQ(it->as_int(), 1);
}

TEST(ValueTest, SignedZerosAreTwoValues) {
  const Value neg = Value::Double(-0.0);
  const Value pos = Value::Double(0.0);
  EXPECT_NE(neg, pos);
  EXPECT_EQ(neg, Value::Double(-0.0));
  EXPECT_EQ(pos, Value::Double(0.0));
  // -0 orders before +0, and both sit between the negatives and the
  // positives.
  EXPECT_TRUE(neg < pos);
  EXPECT_FALSE(pos < neg);
  EXPECT_FALSE(neg < neg);
  EXPECT_TRUE(Value::Double(-1.0) < neg);
  EXPECT_TRUE(pos < Value::Double(1e-300));
  std::set<Value> s{pos, neg, Value::Double(0.0), Value::Double(-0.0)};
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.begin()->ToString(), "-0");
  EXPECT_EQ(s.rbegin()->ToString(), "0");
  // The hash may stay shared: equality tells them apart.
  EXPECT_EQ(neg.Hash(), pos.Hash());
  std::unordered_set<Value, ValueHash> h{neg, pos};
  EXPECT_EQ(h.size(), 2u);
  // NaN still equals nothing, itself included.
  const Value nan = Value::Double(std::nan(""));
  EXPECT_NE(nan, nan);
}

TEST(ValueTest, PoolInternsTheTwoZerosApart) {
  ValuePool pool;
  const ValueId pos = pool.Intern(Value::Double(0.0));
  const ValueId neg = pool.Intern(Value::Double(-0.0));
  EXPECT_NE(pos, neg);
  EXPECT_EQ(pool.Intern(Value::Double(-0.0)), neg);
  EXPECT_EQ(pool.Find(Value::Double(0.0)), pos);
  EXPECT_EQ(pool.value(neg).ToString(), "-0");
  EXPECT_EQ(pool.value(pos).ToString(), "0");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
  EXPECT_EQ(Value::Int(5).Hash(), Value::Int(5).Hash());
  // Different types with "same" content should (overwhelmingly) differ.
  EXPECT_NE(Value::Int(1).Hash(), Value::Str("1").Hash());
}

TEST(ValueTest, HashUsableInUnorderedSet) {
  std::unordered_set<Value, ValueHash> s;
  s.insert(Value::Str("a"));
  s.insert(Value::Str("a"));
  s.insert(Value::Int(1));
  s.insert(Value());
  EXPECT_EQ(s.size(), 3u);
}

TEST(ValueTest, ParseInt) {
  Value v = Value::Parse("123", DataType::kInt);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), 123);
}

TEST(ValueTest, ParseNegativeInt) {
  Value v = Value::Parse("-9", DataType::kInt);
  EXPECT_EQ(v.as_int(), -9);
}

TEST(ValueTest, ParseBadIntYieldsNull) {
  EXPECT_TRUE(Value::Parse("12x", DataType::kInt).is_null());
}

TEST(ValueTest, ParseDouble) {
  Value v = Value::Parse("2.75", DataType::kDouble);
  EXPECT_TRUE(v.is_double());
  EXPECT_DOUBLE_EQ(v.as_double(), 2.75);
}

TEST(ValueTest, ParseString) {
  EXPECT_EQ(Value::Parse("EH7 4AH", DataType::kString).as_string(),
            "EH7 4AH");
}

TEST(ValueTest, ParseEmptyIsNull) {
  EXPECT_TRUE(Value::Parse("", DataType::kString).is_null());
  EXPECT_TRUE(Value::Parse("", DataType::kInt).is_null());
  EXPECT_TRUE(Value::Parse("<null>", DataType::kString).is_null());
}

}  // namespace
}  // namespace certfix

#include "relational/value_pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "relational/relation.h"
#include "relational/tuple.h"

namespace certfix {
namespace {

TEST(ValuePoolTest, InternLookupRoundTrip) {
  ValuePool pool;
  ValueId a = pool.Intern(Value::Str("alpha"));
  ValueId b = pool.Intern(Value::Str("beta"));
  ValueId i = pool.Intern(Value::Int(42));
  ValueId d = pool.Intern(Value::Double(2.5));

  EXPECT_NE(a, b);
  EXPECT_NE(a, i);
  EXPECT_EQ(pool.value(a), Value::Str("alpha"));
  EXPECT_EQ(pool.value(b), Value::Str("beta"));
  EXPECT_EQ(pool.value(i), Value::Int(42));
  EXPECT_EQ(pool.value(d), Value::Double(2.5));

  EXPECT_EQ(pool.Find(Value::Str("alpha")), a);
  EXPECT_EQ(pool.Find(Value::Int(42)), i);
  EXPECT_EQ(pool.Find(Value::Str("absent")), kInvalidValueId);
}

TEST(ValuePoolTest, InterningIsIdempotent) {
  ValuePool pool;
  ValueId a1 = pool.Intern(Value::Str("x"));
  ValueId a2 = pool.Intern(Value::Str("x"));
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(pool.size(), 2u);  // null slot + "x"
}

TEST(ValuePoolTest, NullAlwaysMapsToSlotZero) {
  ValuePool pool;
  EXPECT_EQ(pool.Intern(Value()), kNullValueId);
  EXPECT_EQ(pool.Find(Value()), kNullValueId);
  EXPECT_TRUE(pool.value(kNullValueId).is_null());
}

TEST(ValuePoolTest, TypedValuesAreDistinct) {
  ValuePool pool;
  // Int 5, Double 5.0, and Str "5" are different values.
  ValueId i = pool.Intern(Value::Int(5));
  ValueId d = pool.Intern(Value::Double(5.0));
  ValueId s = pool.Intern(Value::Str("5"));
  EXPECT_NE(i, d);
  EXPECT_NE(i, s);
  EXPECT_NE(d, s);
}

TEST(ValuePoolTest, ReferencesStayStableAcrossGrowth) {
  ValuePool pool;
  ValueId first = pool.Intern(Value::Str("pinned"));
  const Value& ref = pool.value(first);
  for (int i = 0; i < 10000; ++i) {
    pool.Intern(Value::Int(i));
  }
  // The deque-backed store never moves interned values.
  EXPECT_EQ(&ref, &pool.value(first));
  EXPECT_EQ(ref, Value::Str("pinned"));
}

TEST(ValuePoolTest, StableUnderConcurrentReaders) {
  ValuePool pool;
  constexpr int kValues = 5000;
  std::vector<ValueId> ids;
  ids.reserve(kValues);
  for (int i = 0; i < kValues; ++i) {
    ids.push_back(pool.Intern(Value::Str("v" + std::to_string(i))));
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> readers;
  std::vector<int> mismatches(kThreads, 0);
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] {
      for (int pass = 0; pass < 20; ++pass) {
        for (int i = 0; i < kValues; ++i) {
          const Value& v = pool.value(ids[i]);
          if (v.as_string() != "v" + std::to_string(i)) ++mismatches[r];
          if (pool.Find(v) != ids[i]) ++mismatches[r];
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (int r = 0; r < kThreads; ++r) EXPECT_EQ(mismatches[r], 0);
}

TEST(PoolBridgeTest, TranslatesAndMemoizes) {
  ValuePool from;
  ValuePool to;
  ValueId fa = from.Intern(Value::Str("shared"));
  ValueId fb = from.Intern(Value::Str("only-in-from"));
  ValueId ta = to.Intern(Value::Str("shared"));

  PoolBridge bridge(&from, &to);
  EXPECT_EQ(bridge.Translate(fa), ta);
  EXPECT_EQ(bridge.Translate(fb), kInvalidValueId);
  EXPECT_EQ(bridge.Translate(kNullValueId), kNullValueId);
  // Repeat hits come out of the memo table.
  EXPECT_EQ(bridge.Translate(fa), ta);

  // Values interned after the bridge was created still translate.
  ValueId fc = from.Intern(Value::Str("late"));
  ValueId tc = to.Intern(Value::Str("late"));
  EXPECT_EQ(bridge.Translate(fc), tc);
}

TEST(PoolBridgeTest, IdentityBridgeIsPassThrough) {
  ValuePool pool;
  ValueId a = pool.Intern(Value::Str("a"));
  PoolBridge bridge(&pool, &pool);
  EXPECT_EQ(bridge.Translate(a), a);
  EXPECT_TRUE(bridge.Covers(&pool, &pool));
}

TEST(ColumnarRelationTest, RowsShareTheRelationPool) {
  SchemaPtr schema = Schema::Make("R", std::vector<std::string>{"a", "b"});
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  ASSERT_TRUE(rel.AppendStrings({"x", "z"}).ok());

  Tuple r0 = rel.at(0);
  Tuple r1 = rel.at(1);
  EXPECT_EQ(r0.pool(), rel.pool());
  // "x" appears in both rows but is interned once.
  EXPECT_EQ(r0.id_at(0), r1.id_at(0));
  EXPECT_NE(r0.id_at(1), r1.id_at(1));
  EXPECT_EQ(rel.Cell(1, 1), Value::Str("z"));
  EXPECT_EQ(rel.CellId(0, 0), r0.id_at(0));
}

TEST(ColumnarRelationTest, SetCellAndSetRowAcrossPools) {
  SchemaPtr schema = Schema::Make("R", std::vector<std::string>{"a", "b"});
  Relation rel(schema);
  ASSERT_TRUE(rel.AppendStrings({"x", "y"}).ok());
  rel.SetCell(0, 1, Value::Str("w"));
  EXPECT_EQ(rel.Cell(0, 1), Value::Str("w"));

  // A tuple from a foreign pool re-interns on assignment.
  Tuple foreign(schema, {Value::Str("p"), Value::Str("q")});
  ASSERT_NE(foreign.pool(), rel.pool());
  rel.SetRow(0, foreign);
  EXPECT_EQ(rel.at(0), foreign);
  EXPECT_EQ(rel.Cell(0, 0), Value::Str("p"));
}

}  // namespace
}  // namespace certfix

// The map-backed reference index the flat-index differential tests
// compare against (reference/key_index.h) must itself be right.

#include "reference/key_index.h"

#include <gtest/gtest.h>

namespace certfix {
namespace {

using reference::KeyIndex;

SchemaPtr S() {
  return Schema::Make("R", std::vector<std::string>{"a", "b", "c"});
}

Relation MakeRel() {
  Relation rel(S());
  EXPECT_TRUE(rel.AppendStrings({"x", "1", "p"}).ok());
  EXPECT_TRUE(rel.AppendStrings({"x", "2", "q"}).ok());
  EXPECT_TRUE(rel.AppendStrings({"y", "1", "r"}).ok());
  return rel;
}

TEST(KeyIndexTest, SingleAttrLookup) {
  Relation rel = MakeRel();
  KeyIndex idx(rel, {0});
  EXPECT_EQ(idx.Lookup({Value::Str("x")}).size(), 2u);
  EXPECT_EQ(idx.Lookup({Value::Str("y")}), (std::vector<size_t>{2}));
  EXPECT_TRUE(idx.Lookup({Value::Str("zz")}).empty());
}

TEST(KeyIndexTest, CompositeKey) {
  Relation rel = MakeRel();
  KeyIndex idx(rel, {0, 1});
  EXPECT_EQ(idx.Lookup({Value::Str("x"), Value::Str("1")}),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(idx.Lookup({Value::Str("y"), Value::Str("2")}).empty());
}

TEST(KeyIndexTest, LookupTupleCrossSchema) {
  Relation rel = MakeRel();
  KeyIndex idx(rel, {0});
  // A probing tuple over a different schema whose attr 2 holds "y".
  SchemaPtr probe_schema =
      Schema::Make("Q", std::vector<std::string>{"u", "v", "w"});
  Tuple probe =
      std::move(Tuple::FromStrings(probe_schema, {"a", "b", "y"})).ValueOrDie();
  EXPECT_EQ(idx.LookupTuple(probe, {2}), (std::vector<size_t>{2}));
}

TEST(KeyIndexTest, NumKeys) {
  Relation rel = MakeRel();
  KeyIndex idx(rel, {0});
  EXPECT_EQ(idx.num_keys(), 2u);
  KeyIndex idx2(rel, {0, 1});
  EXPECT_EQ(idx2.num_keys(), 3u);
}

TEST(KeyIndexTest, NullValuesIndexed) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"", "1", "p"}).ok());
  KeyIndex idx(rel, {0});
  EXPECT_EQ(idx.Lookup({Value()}).size(), 1u);
}

TEST(KeyIndexTest, EmptyRelation) {
  Relation rel(S());
  KeyIndex idx(rel, {0});
  EXPECT_TRUE(idx.Lookup({Value::Str("x")}).empty());
  EXPECT_EQ(idx.num_keys(), 0u);
}

}  // namespace
}  // namespace certfix

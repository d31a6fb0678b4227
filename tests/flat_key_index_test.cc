#include "relational/flat_key_index.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "reference/key_index.h"

namespace certfix {
namespace {

using reference::KeyIndex;

// ---------------------------------------------------------------------------
// FlatIdTable

TEST(FlatIdTableTest, InsertFindErase) {
  FlatIdTable t(2);
  const ValueId k1[] = {1, 2};
  const ValueId k2[] = {2, 1};
  EXPECT_EQ(t.Find(k1), FlatIdTable::kNotFound);
  EXPECT_EQ(t.InsertOrGet(k1, 7), 7u);
  EXPECT_EQ(t.InsertOrGet(k1, 9), 7u);  // present: keeps the first payload
  EXPECT_EQ(t.Find(k1), 7u);
  EXPECT_EQ(t.Find(k2), FlatIdTable::kNotFound);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.Erase(k1));
  EXPECT_FALSE(t.Erase(k1));
  EXPECT_EQ(t.Find(k1), FlatIdTable::kNotFound);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlatIdTableTest, TombstoneSlotIsReused) {
  // Insert/erase cycles of one key must not consume fresh slots: the
  // re-insert takes the tombstone, so the table never resizes.
  FlatIdTable t(1);
  const size_t buckets = t.num_buckets();
  const ValueId k[] = {42};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(t.InsertOrGet(k, static_cast<uint32_t>(i)),
              static_cast<uint32_t>(i));
    EXPECT_TRUE(t.Erase(k));
  }
  EXPECT_EQ(t.num_buckets(), buckets);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlatIdTableTest, GrowthKeepsEveryKey) {
  FlatIdTable t(2, /*expected_keys=*/4);  // undersized: forces resizes
  for (uint32_t i = 0; i < 5000; ++i) {
    const ValueId k[] = {i, i * 31 + 1};
    EXPECT_EQ(t.InsertOrGet(k, i), i);
  }
  EXPECT_EQ(t.size(), 5000u);
  for (uint32_t i = 0; i < 5000; ++i) {
    const ValueId k[] = {i, i * 31 + 1};
    EXPECT_EQ(t.Find(k), i) << "key " << i << " lost in a resize";
  }
}

TEST(FlatIdTableTest, RehashPurgesTombstones) {
  FlatIdTable t(1, /*expected_keys=*/4);
  // Churn distinct keys with immediate erase: used_ climbs via
  // tombstones until a rehash purges them; live keys must survive.
  const ValueId keep[] = {1u << 20};
  EXPECT_EQ(t.InsertOrGet(keep, 777u), 777u);
  for (uint32_t i = 0; i < 5000; ++i) {
    const ValueId k[] = {i};
    t.InsertOrGet(k, i);
    EXPECT_TRUE(t.Erase(k));
  }
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Find(keep), 777u);
}

TEST(FlatIdTableTest, LongKeysUseArena) {
  // Arity above kInlineArity routes keys through the arena path.
  constexpr size_t kArity = FlatIdTable::kInlineArity + 3;
  FlatIdTable t(kArity);
  std::vector<ValueId> key(kArity);
  for (uint32_t i = 0; i < 2000; ++i) {
    for (size_t a = 0; a < kArity; ++a) key[a] = i * 7 + static_cast<ValueId>(a);
    EXPECT_EQ(t.InsertOrGet(key.data(), i), i);
  }
  for (uint32_t i = 0; i < 2000; ++i) {
    for (size_t a = 0; a < kArity; ++a) key[a] = i * 7 + static_cast<ValueId>(a);
    EXPECT_EQ(t.Find(key.data()), i);
  }
  // Erase every other key, then verify the survivors across a growth.
  for (uint32_t i = 0; i < 2000; i += 2) {
    for (size_t a = 0; a < kArity; ++a) key[a] = i * 7 + static_cast<ValueId>(a);
    EXPECT_TRUE(t.Erase(key.data()));
  }
  for (uint32_t i = 2000; i < 4000; ++i) {
    for (size_t a = 0; a < kArity; ++a) key[a] = i * 7 + static_cast<ValueId>(a);
    t.InsertOrGet(key.data(), i);
  }
  for (uint32_t i = 1; i < 2000; i += 2) {
    for (size_t a = 0; a < kArity; ++a) key[a] = i * 7 + static_cast<ValueId>(a);
    EXPECT_EQ(t.Find(key.data()), i);
  }
}

TEST(FlatIdTableTest, ArityZero) {
  // A key over no attributes: exactly one possible key.
  FlatIdTable t(0);
  EXPECT_EQ(t.Find(nullptr), FlatIdTable::kNotFound);
  EXPECT_EQ(t.InsertOrGet(nullptr, 5), 5u);
  EXPECT_EQ(t.InsertOrGet(nullptr, 8), 5u);
  EXPECT_EQ(t.Find(nullptr), 5u);
  EXPECT_TRUE(t.Erase(nullptr));
  EXPECT_EQ(t.Find(nullptr), FlatIdTable::kNotFound);
}

TEST(FlatIdTableTest, DifferentialAgainstStdMap) {
  // Randomized insert/find/erase against a reference map, across all
  // arity regimes (inline short keys and arena long keys).
  for (size_t arity : {1u, 2u, 4u, 6u}) {
    std::mt19937 rng(1234u + static_cast<unsigned>(arity));
    FlatIdTable t(arity, 8);
    std::map<std::vector<ValueId>, uint32_t> ref;
    std::vector<ValueId> key(arity);
    for (int step = 0; step < 20000; ++step) {
      for (size_t a = 0; a < arity; ++a) key[a] = rng() % 97;
      const int op = static_cast<int>(rng() % 3);
      std::vector<ValueId> k(key);
      if (op == 0) {
        const uint32_t fresh = static_cast<uint32_t>(step);
        const uint32_t got = t.InsertOrGet(key.data(), fresh);
        auto [it, inserted] = ref.emplace(k, fresh);
        EXPECT_EQ(got, it->second);
      } else if (op == 1) {
        auto it = ref.find(k);
        EXPECT_EQ(t.Find(key.data()),
                  it == ref.end() ? FlatIdTable::kNotFound : it->second);
      } else {
        EXPECT_EQ(t.Erase(key.data()), ref.erase(k) > 0);
      }
      EXPECT_EQ(t.size(), ref.size());
    }
  }
}

// ---------------------------------------------------------------------------
// FlatKeyIndex vs the map-backed reference (reference/key_index.h)

SchemaPtr S() {
  return Schema::Make("R", std::vector<std::string>{"a", "b", "c"});
}

/// A random relation with heavy key collisions (small alphabets).
Relation RandomRel(size_t rows, unsigned seed) {
  std::mt19937 rng(seed);
  Relation rel(S());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(rel.AppendStrings({"a" + std::to_string(rng() % 17),
                                   "b" + std::to_string(rng() % 11),
                                   "c" + std::to_string(rng() % 5)})
                    .ok());
  }
  return rel;
}

void ExpectSameRows(const RowSpan& got, const std::vector<size_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // Element-wise: postings order (ascending row) must match KeyIndex.
    EXPECT_EQ(got[i], want[i]);
  }
}

TEST(FlatKeyIndexTest, DifferentialAgainstKeyIndex) {
  for (unsigned seed : {1u, 2u, 3u}) {
    Relation rel = RandomRel(500, seed);
    for (const std::vector<AttrId>& attrs :
         std::vector<std::vector<AttrId>>{{0}, {1, 2}, {0, 1, 2}}) {
      KeyIndex ref(rel, attrs);
      FlatKeyIndex flat(rel, attrs);
      EXPECT_EQ(flat.num_keys(), ref.num_keys());
      for (size_t i = 0; i < rel.size(); ++i) {
        std::vector<Value> key;
        for (AttrId a : attrs) key.push_back(rel.at(i).at(a));
        ExpectSameRows(flat.Lookup(key), ref.Lookup(key));
      }
      EXPECT_TRUE(flat.Lookup(std::vector<Value>(
                                  attrs.size(), Value::Str("absent")))
                      .empty());
    }
  }
}

TEST(FlatKeyIndexTest, LookupTupleBridgedMatchesKeyIndex) {
  Relation rel = RandomRel(300, 7);
  const std::vector<AttrId> attrs{0, 1};
  KeyIndex ref(rel, attrs);
  FlatKeyIndex flat(rel, attrs);
  // Probes from a foreign pool, translated through a shared bridge —
  // the shard-worker path. Include values absent from the index pool.
  PoolPtr foreign = std::make_shared<ValuePool>();
  PoolBridge ref_bridge(foreign.get(), rel.pool().get());
  PoolBridge flat_bridge(foreign.get(), rel.pool().get());
  for (size_t i = 0; i < rel.size(); ++i) {
    Tuple probe = rel.at(i).RebasedTo(foreign);
    ExpectSameRows(flat.LookupTuple(probe, attrs, &flat_bridge),
                   ref.LookupTuple(probe, attrs, &ref_bridge));
  }
  Tuple miss = std::move(Tuple::FromStrings(S(), {"nope", "nada", "x"}))
                   .ValueOrDie()
                   .RebasedTo(foreign);
  EXPECT_TRUE(flat.LookupTuple(miss, attrs, &flat_bridge).empty());
}

TEST(FlatKeyIndexTest, NullValuesAndEmptyRelation) {
  Relation rel(S());
  ASSERT_TRUE(rel.AppendStrings({"", "1", "p"}).ok());
  FlatKeyIndex idx(rel, {0});
  EXPECT_EQ(idx.Lookup({Value()}).size(), 1u);

  Relation empty(S());
  FlatKeyIndex none(empty, {0});
  EXPECT_TRUE(none.Lookup({Value::Str("x")}).empty());
  EXPECT_EQ(none.num_keys(), 0u);
}

}  // namespace
}  // namespace certfix

/// \file master_index_test.cc
/// \brief MasterIndex against the linear-scan reference of
/// reference/naive_repair.h: for every rule, every master key and a set of
/// absent and mixed keys, RhsValues must list the same distinct values
/// with the same master-pool ids and representative rows, in the same
/// order. Covers inline keys (arity <= 4) and arena keys
/// (arity > 4), empty-X rules, rules whose X differs from Xm, the sharing
/// constructor, and probes from a foreign pool with and without a
/// PoolBridge.

#include "core/master_index.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "reference/naive_repair.h"
#include "rules/rule_parser.h"
#include "test_util.h"
#include "util/random.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

/// Where a probe tuple's cells are interned, relative to the master.
enum class ProbePool { kMaster, kForeignBridged, kForeign };

const char* Name(ProbePool p) {
  switch (p) {
    case ProbePool::kMaster:
      return "master pool";
    case ProbePool::kForeignBridged:
      return "foreign pool, bridged";
    case ProbePool::kForeign:
      return "foreign pool, no bridge";
  }
  return "";
}

/// Checks every rule's RhsValues on `t` against the reference.
void ExpectMatchesReference(const MasterIndex& index, const RuleSet& rules,
                            const Relation& dm, const Tuple& t,
                            PoolBridge* bridge) {
  for (size_t i = 0; i < rules.size(); ++i) {
    const EditingRule& rule = rules.at(i);
    SCOPED_TRACE("rule " + rule.name() + " on " + t.ToString());
    const std::vector<reference::RhsValue> want =
        reference::RhsValues(rule, dm, t);
    const MasterIndex::RhsSummary& got = index.RhsValues(i, t, bridge);
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].value, want[k].value) << "value " << k;
      EXPECT_EQ(got[k].row, want[k].row) << "representative row " << k;
      EXPECT_EQ(got[k].id, dm.Column(rule.rhsm())[want[k].row])
          << "master-pool id " << k;
    }
  }
}

/// An all-null tuple over `rules`' R schema, in the pool `where` asks for.
Tuple EmptyProbe(const RuleSet& rules, const Relation& dm, ProbePool where,
                 const PoolPtr& foreign) {
  return Tuple(rules.r_schema(),
               where == ProbePool::kMaster ? dm.pool() : foreign);
}

/// Probes every rule with every master row's key, then with keys the
/// master lacks: a value no master row holds, and a key mixing the
/// attributes of two rows.
void ProbeEveryKey(const MasterIndex& index, const RuleSet& rules,
                   const Relation& dm) {
  for (ProbePool where : {ProbePool::kMaster, ProbePool::kForeignBridged,
                          ProbePool::kForeign}) {
    SCOPED_TRACE(Name(where));
    PoolPtr foreign = std::make_shared<ValuePool>();
    PoolBridge bridge(foreign.get(), dm.pool().get());
    PoolBridge* b = where == ProbePool::kForeignBridged ? &bridge : nullptr;
    for (size_t i = 0; i < rules.size(); ++i) {
      const EditingRule& rule = rules.at(i);
      for (size_t m = 0; m < dm.size(); ++m) {
        Tuple t = EmptyProbe(rules, dm, where, foreign);
        for (size_t p = 0; p < rule.lhs().size(); ++p) {
          t.Set(rule.lhs()[p], dm.Cell(m, rule.lhsm()[p]));
        }
        ExpectMatchesReference(index, rules, dm, t, b);
        if (rule.lhs().empty()) continue;

        Tuple absent = t;
        absent.Set(rule.lhs().back(), Value::Str("absent-from-master"));
        ExpectMatchesReference(index, rules, dm, absent, b);

        Tuple mixed = t;
        const size_t other = (m * 7 + 3) % dm.size();
        mixed.Set(rule.lhs().front(), dm.Cell(other, rule.lhsm().front()));
        ExpectMatchesReference(index, rules, dm, mixed, b);
      }
    }
  }
}

TEST(MasterIndexTest, SupplierRulesAcrossSchemas) {
  // R and Rm differ, and phi6-phi8 key on (AC, phn | AC, Hphn).
  SchemaPtr r = SupplierSchema();
  SchemaPtr rm = SupplierMasterSchema();
  Relation dm = SupplierMaster(rm);
  RuleSet rules = SupplierRules(r, rm);
  MasterIndex index(rules, dm);
  EXPECT_EQ(index.num_rules(), rules.size());
  ProbeEveryKey(index, rules, dm);
}

TEST(MasterIndexTest, HospRulesOverGeneratedMaster) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(31);
  Relation dm = HospWorkload::MakeMaster(schema, 40, &rng);
  MasterIndex index(rules, dm);
  ProbeEveryKey(index, rules, dm);
}

/// A master over k1..k6, b, c whose key cells are null or "k1", so keys
/// collide and most keys map to several distinct b values.
Relation WideMaster(const SchemaPtr& schema, size_t rows, unsigned seed) {
  std::mt19937 rng(seed);
  Relation dm(schema);
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::string> cells;
    for (int k = 0; k < 6; ++k) {
      cells.push_back(rng() % 2 == 0 ? "" : "k1");
    }
    cells.push_back("b" + std::to_string(rng() % 4));
    cells.push_back("c" + std::to_string(rng() % 2));
    EXPECT_TRUE(dm.AppendStrings(cells).ok());
  }
  return dm;
}

TEST(MasterIndexTest, WideKeysEmptyKeysAndConflictingSummaries) {
  SchemaPtr schema = Schema::Make(
      "W", std::vector<std::string>{"k1", "k2", "k3", "k4", "k5", "k6", "b",
                                    "c"});
  Result<RuleSet> parsed = ParseRules(R"(
    rule arity5: (k1, k2, k3, k4, k5 | k1, k2, k3, k4, k5) -> (b | b)
    rule arity6: (k1, k2, k3, k4, k5, k6 | k1, k2, k3, k4, k5, k6) -> (c | c)
    rule swapped: (k2, k1, k3, k4, k5 | k1, k2, k3, k4, k5) -> (c | c)
    rule arity4: (k1, k2, k3, k4 | k1, k2, k3, k4) -> (b | b)
    rule arity1: (k6 | k6) -> (b | b)
  )",
                                      schema, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  RuleSet rules = std::move(parsed).ValueOrDie();
  // An empty-X rule (the reductions build them): every master row is a
  // candidate, so the summary is over the whole column.
  Result<EditingRule> empty_x = EditingRule::Make(
      "empty", schema, schema, {}, {}, 6, 6, PatternTuple(schema));
  ASSERT_TRUE(empty_x.ok()) << empty_x.status();
  ASSERT_TRUE(rules.Add(std::move(empty_x).ValueOrDie()).ok());

  Relation dm = WideMaster(schema, 120, 5);
  MasterIndex index(rules, dm);
  ProbeEveryKey(index, rules, dm);

  // Keys collide by construction: some arity-5 key must carry more than
  // one distinct b, or the order and representative checks prove little.
  bool conflicting = false;
  for (size_t m = 0; m < dm.size() && !conflicting; ++m) {
    conflicting = index.RhsValues(0, dm.at(m)).size() > 1;
  }
  EXPECT_TRUE(conflicting);
}

TEST(MasterIndexTest, SharingConstructorAnswersLikeAFreshBuild) {
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(8);
  Relation dm = HospWorkload::MakeMaster(schema, 40, &rng);
  MasterIndex base(rules, dm);
  // A refined rule set in another order, plus one (Xm, Bm) pair the base
  // lacks, so sharing and fresh builds both happen.
  Result<RuleSet> parsed = ParseRules(R"(
    rule a: (mCode | mCode) -> (condition | condition)
    rule b: (id | id) -> (hName | hName)
    rule c: (zip, city | zip, city) -> (ST | ST)
  )",
                                      schema, schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  MasterIndex shared(*parsed, dm, base);
  ProbeEveryKey(shared, *parsed, dm);
}

}  // namespace
}  // namespace certfix

#include "core/exhaustive.h"

#include <gtest/gtest.h>

#include "core/consistency.h"
#include "core/coverage.h"
#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class ExhaustiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
};

TEST_F(ExhaustiveTest, ActiveDomainContainsMasterAndPatternConstants) {
  std::set<Value> dom = ActiveDomain(rules_, dm_);
  EXPECT_TRUE(dom.count(Value::Str("EH7 4AH")) > 0);   // master value
  EXPECT_TRUE(dom.count(Value::Str("0800")) > 0);      // pattern constant
  EXPECT_TRUE(dom.count(Value::Str("2")) > 0);         // pattern constant
  EXPECT_FALSE(dom.count(Value::Str("nonexistent")) > 0);
}

TEST_F(ExhaustiveTest, FreshValueAvoidsDomain) {
  std::set<Value> dom = ActiveDomain(rules_, dm_);
  for (size_t i = 0; i < 5; ++i) {
    Value fresh = FreshValue(DataType::kString, i, dom);
    EXPECT_EQ(dom.count(fresh), 0u);
  }
  Value f0 = FreshValue(DataType::kString, 0, dom);
  Value f1 = FreshValue(DataType::kString, 1, dom);
  EXPECT_NE(f0, f1);
  // Int freshness.
  std::set<Value> int_dom{Value::Int(1000000007)};
  Value fi = FreshValue(DataType::kInt, 0, int_dom);
  EXPECT_EQ(int_dom.count(fi), 0u);
}

TEST_F(ExhaustiveTest, ConcreteRowYieldsSingleInstance) {
  std::vector<AttrId> z = Attrs(r_, {"zip", "phn"}).ToVector();
  PatternTuple row(r_);
  row.SetConst(A(r_, "zip"), Value::Str("EH7 4AH"));
  row.SetConst(A(r_, "phn"), Value::Str("079172485"));
  Result<std::vector<Tuple>> probes = InstantiateRow(rules_, dm_, z, row);
  ASSERT_TRUE(probes.ok());
  EXPECT_EQ(probes->size(), 1u);
  EXPECT_EQ(probes->at(0).at(A(r_, "zip")).as_string(), "EH7 4AH");
}

TEST_F(ExhaustiveTest, WildcardOnMentionedAttrEnumeratesDomPlusFresh) {
  std::vector<AttrId> z = {A(r_, "zip")};
  PatternTuple row(r_);  // zip wildcard
  std::set<Value> dom = ActiveDomain(rules_, dm_);
  Result<std::vector<Tuple>> probes = InstantiateRow(rules_, dm_, z, row);
  ASSERT_TRUE(probes.ok());
  EXPECT_EQ(probes->size(), dom.size() + 1);  // dom + one fresh
}

TEST_F(ExhaustiveTest, NegationExcludesTheConstant) {
  std::vector<AttrId> z = {A(r_, "zip")};
  PatternTuple row(r_);
  row.SetNeg(A(r_, "zip"), Value::Str("EH7 4AH"));
  Result<std::vector<Tuple>> probes = InstantiateRow(rules_, dm_, z, row);
  ASSERT_TRUE(probes.ok());
  for (const Tuple& t : *probes) {
    EXPECT_NE(t.at(A(r_, "zip")), Value::Str("EH7 4AH"));
  }
}

TEST_F(ExhaustiveTest, UnmentionedAttrGetsOneRepresentative) {
  std::vector<AttrId> z = {A(r_, "item")};
  PatternTuple row(r_);  // item wildcard; item unmentioned in Sigma0
  Result<std::vector<Tuple>> probes = InstantiateRow(rules_, dm_, z, row);
  ASSERT_TRUE(probes.ok());
  EXPECT_EQ(probes->size(), 1u);
}

TEST_F(ExhaustiveTest, BudgetEnforced) {
  std::vector<AttrId> z =
      Attrs(r_, {"zip", "AC", "phn", "city", "str"}).ToVector();
  PatternTuple row(r_);  // five mentioned wildcards
  Result<std::vector<Tuple>> probes =
      InstantiateRow(rules_, dm_, z, row, /*max_instances=*/100);
  EXPECT_FALSE(probes.ok());
  EXPECT_EQ(probes.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExhaustiveTest, ConsistencyCheckerEnumeratesWildcardZip) {
  // Wildcard-zip region: all instantiations give unique fixes.
  Region region = Region::Of(r_, Attrs(r_, {"zip"}).ToVector());
  ASSERT_TRUE(region.AddRow(PatternTuple(r_)).ok());
  Result<bool> ok = ConsistencyChecker(*sat_).IsConsistent(region);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(ExhaustiveTest, CoverageCheckerEnumeratesZzmi) {
  // The wildcard generalization of Example 9's region: for every zip/phn
  // pair *from the active domain* the region is not certain (most
  // combinations match no master tuple, leaving attributes uncovered), so
  // the exhaustive check is false; the master-anchored rows are certain.
  Region wild =
      Region::Of(r_, Attrs(r_, {"zip", "phn", "type", "item"}).ToVector());
  PatternTuple row(r_);
  row.SetConst(A(r_, "type"), Value::Str("2"));
  ASSERT_TRUE(wild.AddRow(row).ok());
  CoverageChecker coverage(*sat_);
  Result<bool> wild_ok = coverage.IsCertainRegion(wild);
  ASSERT_TRUE(wild_ok.ok()) << wild_ok.status();
  EXPECT_FALSE(*wild_ok);

  // Anchored rows (z, p) = s[zip, Mphn] per master tuple: certain.
  Region anchored =
      Region::Of(r_, Attrs(r_, {"zip", "phn", "type", "item"}).ToVector());
  for (const Tuple& s : dm_) {
    PatternTuple r2(r_);
    r2.SetConst(A(r_, "zip"), s.at(A(rm_, "zip")));
    r2.SetConst(A(r_, "phn"), s.at(A(rm_, "Mphn")));
    r2.SetConst(A(r_, "type"), Value::Str("2"));
    ASSERT_TRUE(anchored.AddRow(r2).ok());
  }
  Result<bool> anchored_ok = coverage.IsCertainRegion(anchored);
  ASSERT_TRUE(anchored_ok.ok()) << anchored_ok.status();
  EXPECT_TRUE(*anchored_ok);
}

}  // namespace
}  // namespace certfix

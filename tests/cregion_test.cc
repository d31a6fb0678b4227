#include "core/cregion.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/dblp.h"
#include "workload/hosp.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class CRegionSupplierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
    finder_ = std::make_unique<RegionFinder>(*sat_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
  std::unique_ptr<RegionFinder> finder_;
};

TEST_F(CRegionSupplierTest, CompCRegionZIsMinimal) {
  std::vector<AttrId> z = finder_->CompCRegionZ();
  // The forced attrs {phn, type, item} plus one geographic key: size 4.
  EXPECT_EQ(z.size(), 4u);
  AttrSet z_set = AttrSet::FromVector(z);
  EXPECT_TRUE(Attrs(r_, {"phn", "type", "item"}).SubsetOf(z_set));
  EXPECT_EQ(rules_.Closure(z_set), r_->AllAttrs());
}

TEST_F(CRegionSupplierTest, BuildRegionRowsAreValidCertainRegions) {
  std::vector<AttrId> z = finder_->CompCRegionZ();
  CRegionOptions opts;
  double coverage = 0.0;
  Region region = finder_->BuildRegion(z, opts, &coverage);
  EXPECT_FALSE(region.tableau().empty());
  EXPECT_GT(coverage, 0.0);
  CoverageChecker checker(*sat_);
  Result<bool> ok = checker.IsCertainRegion(region);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(*ok);
}

TEST_F(CRegionSupplierTest, RankedRegionsSorted) {
  std::vector<RankedRegion> regions = finder_->ComputeCertainRegions();
  ASSERT_FALSE(regions.empty());
  for (size_t i = 1; i < regions.size(); ++i) {
    EXPECT_GE(regions[i - 1].quality, regions[i].quality);
  }
}

TEST_F(CRegionSupplierTest, BuildRowForMasterAnchorsPatterns) {
  std::vector<AttrId> z =
      Attrs(r_, {"zip", "phn", "type", "item"}).ToVector();
  std::optional<PatternTuple> row =
      BuildRowForMaster(rules_, z, dm_.at(0));
  ASSERT_TRUE(row.has_value());
  // zip pinned to s1's zip; item stays wildcard.
  EXPECT_EQ(row->Get(A(r_, "zip")).value().as_string(), "EH7 4AH");
  EXPECT_TRUE(row->Get(A(r_, "item")).is_wildcard());
}

TEST_F(CRegionSupplierTest, BuildRowRespectsAnchor) {
  std::vector<AttrId> z =
      Attrs(r_, {"zip", "phn", "type", "item"}).ToVector();
  Tuple anchor = T1(r_);
  // Anchor matches s1's zip: row exists.
  std::optional<PatternTuple> ok_row = BuildRowForMaster(
      rules_, z, dm_.at(0), &anchor, Attrs(r_, {"zip"}));
  EXPECT_TRUE(ok_row.has_value());
  // Anchor conflicts with s2's zip: no row.
  std::optional<PatternTuple> no_row = BuildRowForMaster(
      rules_, z, dm_.at(1), &anchor, Attrs(r_, {"zip"}));
  EXPECT_FALSE(no_row.has_value());
}

TEST(CRegionWorkloadTest, HospCompVsGreedy) {
  // Exp-1(1): the certain region found by CompCRegion has 2 attributes
  // for HOSP while GRegion needs 4.
  SchemaPtr schema = HospWorkload::MakeSchema();
  RuleSet rules = HospWorkload::MakeRules(schema);
  Rng rng(3);
  Relation master = HospWorkload::MakeMaster(schema, 200, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);
  RegionFinder finder(sat);

  std::vector<AttrId> comp = finder.CompCRegionZ();
  std::vector<AttrId> greedy = finder.GRegionZ();
  EXPECT_EQ(comp.size(), 2u);
  EXPECT_EQ(greedy.size(), 4u);
  EXPECT_EQ(rules.Closure(AttrSet::FromVector(comp)), schema->AllAttrs());
}

TEST(CRegionWorkloadTest, DblpCompVsGreedy) {
  // Exp-1(1) for DBLP: CompCRegion finds the forced 5-attribute region;
  // GRegion is strictly larger.
  SchemaPtr schema = DblpWorkload::MakeSchema();
  RuleSet rules = DblpWorkload::MakeRules(schema);
  Rng rng(3);
  Relation master = DblpWorkload::MakeMaster(schema, 200, &rng);
  MasterIndex index(rules, master);
  Saturator sat(rules, master, index);
  RegionFinder finder(sat);

  std::vector<AttrId> comp = finder.CompCRegionZ();
  std::vector<AttrId> greedy = finder.GRegionZ();
  EXPECT_EQ(comp.size(), 5u);
  EXPECT_GT(greedy.size(), comp.size());
  EXPECT_EQ(rules.Closure(AttrSet::FromVector(comp)), schema->AllAttrs());
  EXPECT_EQ(rules.Closure(AttrSet::FromVector(greedy)),
            schema->AllAttrs());
}

}  // namespace
}  // namespace certfix

#include "core/zproblems.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class ZProblemsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
    index_ = std::make_unique<MasterIndex>(rules_, dm_);
    sat_ = std::make_unique<Saturator>(rules_, dm_, *index_);
    z_ = std::make_unique<ZProblems>(*sat_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
  std::unique_ptr<ZProblems> z_;
};

TEST_F(ZProblemsTest, ClosureOfZipCoversGeo) {
  AttrSet closure = rules_.Closure(Attrs(r_, {"zip"}));
  EXPECT_TRUE(closure.Contains(A(r_, "AC")));
  EXPECT_TRUE(closure.Contains(A(r_, "str")));
  EXPECT_TRUE(closure.Contains(A(r_, "city")));
  EXPECT_FALSE(closure.Contains(A(r_, "fn")));
  EXPECT_FALSE(closure.Contains(A(r_, "item")));
}

TEST_F(ZProblemsTest, ClosureChainsThroughRules) {
  // {type, AC, phn} -> phi6-8 give str/city/zip -> phi1-3 redundant.
  AttrSet closure = rules_.Closure(Attrs(r_, {"type", "AC", "phn"}));
  EXPECT_TRUE(closure.Contains(A(r_, "zip")));
  EXPECT_TRUE(closure.Contains(A(r_, "str")));
  // fn needs phi4 whose pattern (type) is available and lhs phn too: yes!
  EXPECT_TRUE(closure.Contains(A(r_, "fn")));
  EXPECT_FALSE(closure.Contains(A(r_, "item")));
}

TEST_F(ZProblemsTest, ForcedAttrs) {
  // item is unmentioned; phn and type are mentioned but never any rhs.
  AttrSet forced = z_->ForcedAttrs();
  EXPECT_TRUE(forced.Contains(A(r_, "item")));
  EXPECT_TRUE(forced.Contains(A(r_, "phn")));
  EXPECT_TRUE(forced.Contains(A(r_, "type")));
  EXPECT_FALSE(forced.Contains(A(r_, "AC")));  // rhs of phi1
  EXPECT_FALSE(forced.Contains(A(r_, "fn")));  // rhs of phi4
}

TEST_F(ZProblemsTest, ValidateFindsWitnessForZzmi) {
  // Z = {zip, phn, type, item} admits a certain tableau (Example 9).
  std::vector<AttrId> z = Attrs(r_, {"zip", "phn", "type", "item"}).ToVector();
  ZOptions opts;
  opts.max_patterns = 2000000;
  opts.use_negations = false;  // keep the enumeration tractable
  Result<std::optional<PatternTuple>> tc = z_->Validate(z, opts);
  ASSERT_TRUE(tc.ok()) << tc.status();
  ASSERT_TRUE(tc->has_value());
  // The witness must be a certain region row.
  Region region = Region::Of(r_, z);
  ASSERT_TRUE(region.AddRow(**tc).ok());
  CoverageChecker coverage(*sat_);
  Result<bool> ok = coverage.IsCertainRegion(region);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
}

TEST_F(ZProblemsTest, ValidateFailsWithoutItem) {
  // No tableau can make {zip, phn, type} certain: item is unreachable.
  std::vector<AttrId> z = Attrs(r_, {"zip", "phn", "type"}).ToVector();
  Result<std::optional<PatternTuple>> tc = z_->Validate(z);
  ASSERT_TRUE(tc.ok()) << tc.status();
  EXPECT_FALSE(tc->has_value());
}

TEST_F(ZProblemsTest, ValidateFailsOnEmptyClosure) {
  std::vector<AttrId> z = Attrs(r_, {"item"}).ToVector();
  Result<std::optional<PatternTuple>> tc = z_->Validate(z);
  ASSERT_TRUE(tc.ok());
  EXPECT_FALSE(tc->has_value());
}

TEST_F(ZProblemsTest, CountMatchesMasterAnchoredRows) {
  // With negations off, the valid concrete patterns on {zip, phn, type,
  // item} are exactly the (s[zip], s[Mphn], 2) anchors (type = 1 rows fail
  // because fn/ln are only reachable via Mphn) plus the (s[zip], s[Hphn],
  // 1) anchors where ln/fn coverage fails -> exactly |Dm| mobile rows...
  // The exact count is asserted by construction: recompute via the
  // coverage checker to keep the expectation honest.
  std::vector<AttrId> z = Attrs(r_, {"zip", "phn", "type", "item"}).ToVector();
  ZOptions opts;
  opts.max_patterns = 2000000;
  opts.use_negations = false;
  Result<size_t> count = z_->Count(z, opts);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_GE(*count, dm_.size());  // at least the mobile-phone anchors

  // Cross-check one anchor per master tuple is indeed counted.
  CoverageChecker coverage(*sat_);
  size_t anchors = 0;
  for (const Tuple& s : dm_) {
    Region region = Region::Of(r_, z);
    PatternTuple row(r_);
    row.SetConst(A(r_, "zip"), s.at(A(rm_, "zip")));
    row.SetConst(A(r_, "phn"), s.at(A(rm_, "Mphn")));
    row.SetConst(A(r_, "type"), Value::Str("2"));
    ASSERT_TRUE(region.AddRow(row).ok());
    Result<bool> ok = coverage.IsCertainRegion(region);
    ASSERT_TRUE(ok.ok());
    if (*ok) ++anchors;
  }
  EXPECT_EQ(anchors, dm_.size());
}

TEST_F(ZProblemsTest, CountZeroWhenClosureInsufficient) {
  Result<size_t> count = z_->Count(Attrs(r_, {"zip"}).ToVector());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(ZProblemsTest, BudgetEnforced) {
  std::vector<AttrId> z = r_->AllAttrs().ToVector();
  ZOptions opts;
  opts.max_patterns = 10;
  Result<std::optional<PatternTuple>> tc = z_->Validate(z, opts);
  EXPECT_FALSE(tc.ok());
  EXPECT_EQ(tc.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ZProblemsTest, MinimumGreedyCoversR) {
  std::vector<AttrId> z = z_->MinimumGreedy();
  EXPECT_EQ(rules_.Closure(AttrSet::FromVector(z)), r_->AllAttrs());
  // Forced attrs must be present.
  AttrSet z_set = AttrSet::FromVector(z);
  EXPECT_TRUE(z_->ForcedAttrs().SubsetOf(z_set));
  // For Sigma0 the minimum is {zip or AC-side key, phn, type, item}: four.
  EXPECT_LE(z.size(), 5u);
}

TEST_F(ZProblemsTest, MinimumExactFindsFour) {
  // Forced = {phn, type, item}; one more attribute (e.g. zip) suffices.
  ZOptions opts;
  opts.max_patterns = 2000000;
  opts.use_negations = false;
  Result<std::optional<std::vector<AttrId>>> z4 = z_->MinimumExact(4, opts);
  ASSERT_TRUE(z4.ok()) << z4.status();
  ASSERT_TRUE(z4->has_value());
  EXPECT_EQ((*z4)->size(), 4u);
  // But three attributes are too few.
  Result<std::optional<std::vector<AttrId>>> z3 = z_->MinimumExact(3, opts);
  ASSERT_TRUE(z3.ok()) << z3.status();
  EXPECT_FALSE(z3->has_value());
}

}  // namespace
}  // namespace certfix

#include "core/saturation.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class SaturationTest : public ::testing::Test {
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

TEST_F(SaturationTest, T1FromZipFixesGeoAttributes) {
  // Example 12: validating zip alone lets phi1/phi2/phi3 fix AC, str, city.
  Tuple t1 = T1(r_);
  SaturationResult result = sat_->Saturate(t1, Attrs(r_, {"zip"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "AC")).as_string(), "131");
  EXPECT_EQ(result.fixed.at(A(r_, "str")).as_string(), "51 Elm Row");
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Edi");
  EXPECT_EQ(result.covered, Attrs(r_, {"zip", "AC", "str", "city"}));
}

TEST_F(SaturationTest, T1FromZipPhnTypeIsUniqueNotCertain) {
  // Example 8: (Zzm = {zip, phn, type}) gives a unique fix for t1 but the
  // covered set misses item (master data has no item information).
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t1, Attrs(r_, {"zip", "phn", "type"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "fn")).as_string(), "Robert");
  EXPECT_FALSE(result.covered.Contains(A(r_, "item")));
  EXPECT_FALSE(result.CertainOver(r_));
}

TEST_F(SaturationTest, T1FullRegionIsCertain) {
  // Example 9: adding item gives the certain region Zzmi.
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t1, Attrs(r_, {"zip", "phn", "type", "item"}));
  EXPECT_TRUE(result.unique);
  EXPECT_TRUE(result.CertainOver(r_));
  EXPECT_EQ(result.fixed, T1Truth(r_));
}

TEST_F(SaturationTest, T3ConflictDetected) {
  // Example 5/10: t3's AC (belonging to s2's home phone) and zip (s1)
  // suggest different cities -> no unique fix when both are validated.
  Tuple t3 = T3(r_);
  SaturationResult result = sat_->CheckUniqueFix(
      t3, Attrs(r_, {"AC", "phn", "type", "zip"}));
  EXPECT_FALSE(result.unique);
  ASSERT_FALSE(result.conflicts.empty());
  bool city_conflict = false;
  for (const FixConflict& c : result.conflicts) {
    if (c.attr == A(r_, "city")) city_conflict = true;
  }
  EXPECT_TRUE(city_conflict);
}

TEST_F(SaturationTest, T3WithoutZipIsUnique) {
  // Example 6: validating only (AC, phn, type) gives the unique fix via
  // (phi6-8, s2).
  Tuple t3 = T3(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t3, Attrs(r_, {"AC", "phn", "type"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Lnd");
  EXPECT_EQ(result.fixed.at(A(r_, "zip")).as_string(), "NW1 6XE");
}

TEST_F(SaturationTest, T4NothingApplies) {
  // Example 5: no rules/master tuples apply to t4 at all.
  Tuple t4 = T4(r_);
  SaturationResult result = sat_->Saturate(t4, Attrs(r_, {"zip", "AC"}));
  EXPECT_TRUE(result.unique);
  EXPECT_TRUE(result.steps.empty());
  EXPECT_EQ(result.covered, Attrs(r_, {"zip", "AC"}));
}

TEST_F(SaturationTest, ValidatedAttrsAreProtected) {
  // t1[AC] = 020 validated: phi1 must NOT overwrite it (B in Z), and the
  // cross-round analysis must not flag it either (the only proposer needs
  // AC unset... which the exclusion run provides, detecting the 131-vs-020
  // difference as a potential conflict only if 020 could also be derived).
  Tuple t1 = T1(r_);
  SaturationResult result =
      sat_->Saturate(t1, Attrs(r_, {"zip", "AC"}));
  EXPECT_EQ(result.fixed.at(A(r_, "AC")).as_string(), "020");
}

TEST_F(SaturationTest, ChainedFiring) {
  // t2 (Example 2): validating (type, AC, phn) lets phi6-8 fire. In this
  // fixture t2[AC, phn] = (020, 6884563) matches s2's (AC, Hphn), so the
  // repair enriches t2[str, zip] and corrects the inconsistent t2[city]
  // (AC 020 implies Lnd, not Edi) with s2's values. The newly validated
  // zip then enables phi1-3, whose targets are already protected.
  Tuple t2 = T2(r_);
  SaturationResult result =
      sat_->CheckUniqueFix(t2, Attrs(r_, {"type", "AC", "phn"}));
  EXPECT_TRUE(result.unique);
  EXPECT_EQ(result.fixed.at(A(r_, "str")).as_string(), "20 Baker St.");
  EXPECT_EQ(result.fixed.at(A(r_, "city")).as_string(), "Lnd");
  EXPECT_EQ(result.fixed.at(A(r_, "zip")).as_string(), "NW1 6XE");
}

TEST_F(SaturationTest, ExcludedSaturationCollectsProposals) {
  Tuple t1 = T1(r_);
  std::vector<FixMove> proposals;
  sat_->SaturateExcluding(t1, Attrs(r_, {"zip"}), A(r_, "city"),
                          &proposals);
  ASSERT_EQ(proposals.size(), 1u);
  EXPECT_EQ(proposals[0].value.as_string(), "Edi");
  EXPECT_EQ(rules_.at(proposals[0].rule_idx).name(), "phi3");
}

TEST(SaturationCrossRoundTest, ConflictNamesBothProposingRules) {
  // r1 proposes C:=c1 in round 1; r3 proposes C:=d1 once r2 validates B
  // in round 1. The full saturation applies c1 and never sees d1; only
  // the C-excluded run collects both, and it must blame r1 and r3, not
  // the decoy that happens to be rule #0.
  SchemaPtr schema = Schema::Make(
      "R", std::vector<std::string>{"A", "B", "C", "D", "E"});
  Relation dm(schema);
  ASSERT_TRUE(dm.AppendStrings({"a", "b1", "c1", "d1", "e1"}).ok());
  Result<RuleSet> rules = ParseRules(R"(
    rule decoy: (A | A) -> (E | E)
    rule r1: (A | A) -> (C | C)
    rule r2: (A | A) -> (B | B)
    rule r3: (B | B) -> (C | D)
  )", schema, schema);
  ASSERT_TRUE(rules.ok()) << rules.status();
  MasterIndex index(*rules, dm);
  Saturator sat(*rules, dm, index);
  Result<Tuple> t = Tuple::FromStrings(schema, {"a", "x", "y", "w", "z"});
  ASSERT_TRUE(t.ok());

  SaturationResult result = sat.CheckUniqueFix(*t, Attrs(schema, {"A"}));
  EXPECT_FALSE(result.unique);
  ASSERT_EQ(result.conflicts.size(), 1u);
  const FixConflict& c = result.conflicts[0];
  EXPECT_EQ(c.attr, A(schema, "C"));
  EXPECT_EQ(c.value_a.as_string(), "c1");
  EXPECT_EQ(c.value_b.as_string(), "d1");
  EXPECT_EQ(rules->at(c.rule_a).name(), "r1");
  EXPECT_EQ(rules->at(c.rule_b).name(), "r3");
}

TEST_F(SaturationTest, MasterDisagreementIsConflict) {
  // Two master tuples with the same key but different fix values must be
  // reported as non-unique.
  Relation dm2 = dm_;
  Tuple extra = dm_.at(0);
  extra.Set(A(rm_, "city"), Value::Str("Gla"));
  ASSERT_TRUE(dm2.Append(extra).ok());
  MasterIndex index2(rules_, dm2);
  Saturator sat2(rules_, dm2, index2);
  SaturationResult result = sat2.CheckUniqueFix(T1(r_), Attrs(r_, {"zip"}));
  EXPECT_FALSE(result.unique);
}

TEST_F(SaturationTest, ConcurrentChecksOverOneRelationWriteNoPool) {
  // Rows of one shared relation whose fixes carry master values the
  // relation lacks ("Robert", "131", "51 Elm Row", ...). Four threads
  // check them at once; no entry point may write the relation's pool.
  Relation data(r_);
  for (size_t i = 0; i < 48; ++i) {
    ASSERT_TRUE(data.Append(i % 3 == 0 ? T1(r_) : i % 3 == 1 ? T3(r_)
                                                              : T4(r_))
                    .ok());
  }
  ASSERT_EQ(data.pool()->Find(Value::Str("Robert")), kInvalidValueId);
  const AttrSet z = Attrs(r_, {"zip", "phn", "type"});
  const size_t pool_size = data.pool()->size();
  auto check_all = [&] {
    std::vector<std::string> out;
    for (size_t i = 0; i < data.size(); ++i) {
      SaturationResult r = sat_->CheckUniqueFix(data.at(i), z);
      out.push_back(r.fixed.ToString() + (r.unique ? " unique " : " conflict ") +
                    std::to_string(r.steps.size()));
    }
    return out;
  };
  const std::vector<std::string> want = check_all();

  std::vector<std::vector<std::string>> got(4);
  std::vector<std::thread> threads;
  for (std::vector<std::string>& g : got) {
    threads.emplace_back([&check_all, &g] { g = check_all(); });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<std::string>& g : got) EXPECT_EQ(g, want);
  EXPECT_EQ(data.pool()->size(), pool_size);
  EXPECT_EQ(want[0], T1Truth(r_).ToString() + " unique 5");
}

}  // namespace
}  // namespace certfix

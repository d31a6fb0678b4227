/// \file fix_state_test.cc
/// \brief The single-step FixState oracle of reference/fix_state.h on the
/// paper's supplier example: justified moves, protection of validated
/// attributes, fixpoints, and confluence with the Saturator.

#include "reference/fix_state.h"

#include <gtest/gtest.h>

#include "core/saturation.h"
#include "test_util.h"
#include "util/random.h"

namespace certfix {
namespace {

using namespace testing_fixtures;
using reference::FixState;

class FixStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    dm_ = SupplierMaster(rm_);
    rules_ = SupplierRules(r_, rm_);
  }

  SchemaPtr r_;
  SchemaPtr rm_;
  Relation dm_;
  RuleSet rules_;
};

TEST_F(FixStateTest, EnabledMovesRespectJustification) {
  // With Z = {zip}: only phi1-3 (lhs zip, empty pattern) are enabled.
  FixState state(T1(r_), Attrs(r_, {"zip"}));
  std::vector<FixMove> moves = state.EnabledMoves(rules_, dm_);
  ASSERT_EQ(moves.size(), 3u);
  for (const FixMove& m : moves) {
    EXPECT_LT(m.rule_idx, 3u);
    EXPECT_EQ(m.master_idx, 0u);  // s1 matches t1's zip
  }
}

TEST_F(FixStateTest, PatternAttrsMustBeValidated) {
  // phi4 needs phn (lhs) and type (pattern) validated; phn alone is not
  // enough.
  FixState only_phn(T1(r_), Attrs(r_, {"phn"}));
  EXPECT_TRUE(only_phn.EnabledMoves(rules_, dm_).empty());
  FixState both(T1(r_), Attrs(r_, {"phn", "type"}));
  std::vector<FixMove> moves = both.EnabledMoves(rules_, dm_);
  EXPECT_EQ(moves.size(), 2u);  // phi4 (fn) and phi5 (ln)
}

TEST_F(FixStateTest, ApplyValidatesAndProtects) {
  FixState state(T1(r_), Attrs(r_, {"zip"}));
  std::vector<FixMove> moves = state.EnabledMoves(rules_, dm_);
  ASSERT_FALSE(moves.empty());
  FixMove first = moves[0];
  state.Apply(rules_, first);
  EXPECT_TRUE(state.validated().Contains(first.attr));
  EXPECT_EQ(state.tuple().at(first.attr), first.value);
  // The same rule is no longer enabled (its target is protected).
  for (const FixMove& m : state.EnabledMoves(rules_, dm_)) {
    EXPECT_NE(m.attr, first.attr);
  }
}

TEST_F(FixStateTest, IsEnabledMatchesEnumeration) {
  FixState state(T1(r_), Attrs(r_, {"zip"}));
  for (const FixMove& m : state.EnabledMoves(rules_, dm_)) {
    EXPECT_TRUE(state.IsEnabled(rules_, dm_, m));
  }
  // A move with the wrong master is not enabled.
  FixMove bogus{0, 1, A(r_, "AC"), Value::Str("020")};
  EXPECT_FALSE(state.IsEnabled(rules_, dm_, bogus));
}

TEST_F(FixStateTest, RandomOrderReachesSaturatorFixpoint) {
  // Confluence (DESIGN.md 2.1): any maximal sequence of single-step
  // applications ends at the batch-saturation fixpoint when the fix is
  // unique. Exercised over random orders and several starting regions.
  MasterIndex index(rules_, dm_);
  Saturator sat(rules_, dm_, index);
  Rng rng(123);
  for (const auto& names :
       {std::vector<std::string>{"zip"},
        std::vector<std::string>{"zip", "phn", "type"},
        std::vector<std::string>{"type", "AC", "phn"}}) {
    AttrSet z = Attrs(r_, names);
    SaturationResult expected = sat.CheckUniqueFix(T1(r_), z);
    if (!expected.unique) continue;
    for (int trial = 0; trial < 20; ++trial) {
      FixState state(T1(r_), z);
      while (true) {
        std::vector<FixMove> moves = state.EnabledMoves(rules_, dm_);
        if (moves.empty()) break;
        state.Apply(rules_, moves[rng.Index(moves.size())]);
      }
      EXPECT_EQ(state.tuple(), expected.fixed);
      EXPECT_EQ(state.validated(), expected.covered);
    }
  }
}

TEST_F(FixStateTest, FixpointDetection) {
  FixState state(T4(r_), Attrs(r_, {"zip"}));
  EXPECT_TRUE(state.IsFixpoint(rules_, dm_));
  FixState busy(T1(r_), Attrs(r_, {"zip"}));
  EXPECT_FALSE(busy.IsFixpoint(rules_, dm_));
}

}  // namespace
}  // namespace certfix

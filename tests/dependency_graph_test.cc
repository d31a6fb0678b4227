#include "core/dependency_graph.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace certfix {
namespace {

using namespace testing_fixtures;

class DependencyGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = SupplierSchema();
    rm_ = SupplierMasterSchema();
    rules_ = SupplierRules(r_, rm_);
  }
  SchemaPtr r_;
  SchemaPtr rm_;
  RuleSet rules_;
};

// Indices in Sigma0: phi1..phi9 are 0..8.
TEST_F(DependencyGraphTest, Fig4Edges) {
  DependencyGraph graph(rules_);
  // Fig. 4: phi1 (rhs AC) feeds phi6, phi7, phi8 (AC in lhs) and phi9
  // (AC in lhs and pattern).
  EXPECT_TRUE(graph.HasEdge(0, 5));
  EXPECT_TRUE(graph.HasEdge(0, 6));
  EXPECT_TRUE(graph.HasEdge(0, 7));
  EXPECT_TRUE(graph.HasEdge(0, 8));
  // phi8 (rhs zip) feeds phi1, phi2, phi3.
  EXPECT_TRUE(graph.HasEdge(7, 0));
  EXPECT_TRUE(graph.HasEdge(7, 1));
  EXPECT_TRUE(graph.HasEdge(7, 2));
}

TEST_F(DependencyGraphTest, NoSpuriousEdges) {
  DependencyGraph graph(rules_);
  // phi2 (rhs str): str appears in no lhs or pattern.
  EXPECT_TRUE(graph.Successors(1).empty());
  // phi4 (rhs fn): likewise.
  EXPECT_TRUE(graph.Successors(3).empty());
  // No self loops by construction.
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    EXPECT_FALSE(graph.HasEdge(u, u));
  }
}

// Region-invalidation API (incremental engine).
TEST_F(DependencyGraphTest, RulesReadingMasterAttrs) {
  DependencyGraph graph(rules_);
  // Master-side zip is read by phi1..phi3 (Xm) and phi8 (Bm).
  AttrSet zip;
  zip.Add(A(rm_, "zip"));
  EXPECT_EQ(graph.RulesReadingMasterAttrs(zip),
            (std::vector<size_t>{0, 1, 2, 7}));
  // DOB and gender feed no rule: a master delta there invalidates nothing.
  AttrSet irrelevant;
  irrelevant.Add(A(rm_, "DOB"));
  irrelevant.Add(A(rm_, "gender"));
  EXPECT_TRUE(graph.RulesReadingMasterAttrs(irrelevant).empty());
}

TEST_F(DependencyGraphTest, PredecessorsMirrorSuccessors) {
  DependencyGraph graph(rules_);
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    for (size_t v : graph.Successors(u)) {
      const auto& preds = graph.Predecessors(v);
      EXPECT_NE(std::find(preds.begin(), preds.end(), u), preds.end());
    }
  }
}

TEST_F(DependencyGraphTest, CycleDetection) {
  DependencyGraph graph(rules_);
  // phi1 -> phi8 -> phi1 is a cycle (AC -> zip -> AC).
  EXPECT_TRUE(graph.HasCycle());

  // An acyclic chain: a -> b -> c via two rules.
  SchemaPtr r = Schema::Make("L", std::vector<std::string>{"a", "b", "c"});
  SchemaPtr rm = Schema::Make("Lm", std::vector<std::string>{"a", "b", "c"});
  RuleSet chain(r, rm);
  Result<EditingRule> r1 = EditingRule::MakeByName(
      "r1", r, rm, {"a"}, {"a"}, "b", "b", PatternTuple(r));
  Result<EditingRule> r2 = EditingRule::MakeByName(
      "r2", r, rm, {"b"}, {"b"}, "c", "c", PatternTuple(r));
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(chain.Add(std::move(r1).ValueOrDie()).ok());
  ASSERT_TRUE(chain.Add(std::move(r2).ValueOrDie()).ok());
  DependencyGraph acyclic(chain);
  EXPECT_TRUE(acyclic.HasEdge(0, 1));
  EXPECT_FALSE(acyclic.HasCycle());
}

TEST_F(DependencyGraphTest, DotOutputContainsRuleNames) {
  DependencyGraph graph(rules_);
  std::string dot = graph.ToDot();
  EXPECT_NE(dot.find("phi1"), std::string::npos);
  EXPECT_NE(dot.find("phi9"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace certfix

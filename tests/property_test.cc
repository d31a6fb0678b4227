/// \file property_test.cc
/// \brief Parameterized property tests over randomly generated
/// (R, Rm, Sigma, Dm) instances: the saturation-based unique-fix decision
/// must agree with a brute-force exploration of ALL maximal application
/// orders, and the named engines (TransFix, normalization) must agree with
/// the saturator.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/saturation.h"
#include "core/transfix.h"
#include "reference/fix_state.h"
#include "test_util.h"
#include "util/random.h"

namespace certfix {
namespace {

struct RandomInstance {
  SchemaPtr r;
  SchemaPtr rm;
  Relation dm;
  RuleSet rules;
  Tuple input;
  AttrSet z0;
};

// Small alphabet keeps collision (and thus rule firing) probability high.
Value V(int64_t x) { return Value::Int(x); }

// CERTFIX_PROPERTY_SEED, when set, offsets every instance seed (the CI
// soak); unset, the instances are the fixed ones every ctest run checks.
RandomInstance MakeRandomInstance(uint64_t seed) {
  Rng rng(seed + testing_fixtures::PropertySeed(0));
  size_t r_arity = 4 + rng.Index(3);   // 4..6
  size_t rm_arity = 3 + rng.Index(3);  // 3..5

  std::vector<Attribute> r_attrs;
  for (size_t i = 0; i < r_arity; ++i) {
    r_attrs.push_back({"a" + std::to_string(i), DataType::kInt});
  }
  std::vector<Attribute> rm_attrs;
  for (size_t i = 0; i < rm_arity; ++i) {
    rm_attrs.push_back({"m" + std::to_string(i), DataType::kInt});
  }
  RandomInstance inst;
  inst.r = Schema::Make("R", r_attrs);
  inst.rm = Schema::Make("Rm", rm_attrs);

  inst.dm = Relation(inst.rm);
  size_t dm_rows = 2 + rng.Index(5);
  for (size_t i = 0; i < dm_rows; ++i) {
    Tuple tm(inst.rm);
    for (AttrId a = 0; a < rm_arity; ++a) tm.Set(a, V(rng.Uniform(0, 3)));
    Status st = inst.dm.Append(std::move(tm));
    EXPECT_TRUE(st.ok());
  }

  inst.rules = RuleSet(inst.r, inst.rm);
  size_t num_rules = 3 + rng.Index(5);
  for (size_t i = 0; i < num_rules; ++i) {
    size_t x_len = 1 + rng.Index(2);
    std::vector<AttrId> x;
    while (x.size() < x_len) {
      AttrId cand = static_cast<AttrId>(rng.Index(r_arity));
      bool dup = false;
      for (AttrId e : x) dup |= (e == cand);
      if (!dup) x.push_back(cand);
    }
    AttrId b = static_cast<AttrId>(rng.Index(r_arity));
    bool b_in_x = false;
    for (AttrId e : x) b_in_x |= (e == b);
    if (b_in_x) continue;
    std::vector<AttrId> xm;
    for (size_t k = 0; k < x_len; ++k) {
      xm.push_back(static_cast<AttrId>(rng.Index(rm_arity)));
    }
    AttrId bm = static_cast<AttrId>(rng.Index(rm_arity));
    PatternTuple tp(inst.r);
    if (rng.Bernoulli(0.4)) {
      AttrId pa = static_cast<AttrId>(rng.Index(r_arity));
      if (pa != b) {
        if (rng.Bernoulli(0.3)) {
          tp.SetNeg(pa, V(rng.Uniform(0, 3)));
        } else {
          tp.SetConst(pa, V(rng.Uniform(0, 3)));
        }
      }
    }
    Result<EditingRule> rule =
        EditingRule::Make("r" + std::to_string(i), inst.r, inst.rm, x, xm,
                          b, bm, std::move(tp));
    if (rule.ok()) {
      Status st = inst.rules.Add(std::move(rule).ValueOrDie());
      EXPECT_TRUE(st.ok());
    }
  }

  inst.input = Tuple(inst.r);
  for (AttrId a = 0; a < r_arity; ++a) inst.input.Set(a, V(rng.Uniform(0, 3)));
  for (AttrId a = 0; a < r_arity; ++a) {
    if (rng.Bernoulli(0.5)) inst.z0.Add(a);
  }
  return inst;
}

using reference::FixState;

// Brute force: explore every maximal application order; collect all
// fixpoint tuples. Memoizes on (Z, values of Z). Moves come from the
// linear-scan FixState of reference/fix_state.h, not from the MasterIndex
// the Saturator under test probes.
struct BruteForce {
  const RuleSet& rules;
  const Relation& dm;
  std::set<std::string> visited;
  std::set<std::string> fixpoints;
  std::vector<Tuple> fixpoint_tuples;
  size_t budget = 20000;

  std::string StateKey(const FixState& state) {
    std::string key = std::to_string(state.validated().bits()) + "|";
    for (AttrId a : state.validated().ToVector()) {
      key += state.tuple().at(a).ToString() + ";";
    }
    return key;
  }

  void Explore(FixState state) {
    if (budget == 0) return;
    --budget;
    std::string key = StateKey(state);
    if (!visited.insert(key).second) return;
    std::vector<FixMove> moves = state.EnabledMoves(rules, dm);
    if (moves.empty()) {
      // Fixpoint: record the tuple restricted to validated attributes
      // (unvalidated values never changed, so the full tuple works too).
      if (fixpoints.insert(state.tuple().ToString()).second) {
        fixpoint_tuples.push_back(state.tuple());
      }
      return;
    }
    for (const FixMove& m : moves) {
      FixState next = state;
      next.Apply(rules, m);
      Explore(std::move(next));
    }
  }
};

class UniqueFixPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniqueFixPropertyTest, SaturatorAgreesWithBruteForce) {
  RandomInstance inst = MakeRandomInstance(GetParam() * 9176 + 3);
  MasterIndex index(inst.rules, inst.dm);
  Saturator sat(inst.rules, inst.dm, index);
  SaturationResult result = sat.CheckUniqueFix(inst.input, inst.z0);

  BruteForce brute{inst.rules, inst.dm, {}, {}, {}, 20000};
  brute.Explore(FixState(inst.input, inst.z0));
  if (brute.budget == 0) GTEST_SKIP() << "state space too large";

  bool brute_unique = brute.fixpoints.size() <= 1;
  EXPECT_EQ(result.unique, brute_unique)
      << "saturator=" << result.unique << " brute fixpoints="
      << brute.fixpoints.size() << " seed=" << GetParam();
  if (result.unique && brute_unique && !brute.fixpoint_tuples.empty()) {
    EXPECT_EQ(result.fixed, brute.fixpoint_tuples.front());
  }
}

TEST_P(UniqueFixPropertyTest, SaturationIsIdempotent) {
  RandomInstance inst = MakeRandomInstance(GetParam() * 31337 + 11);
  MasterIndex index(inst.rules, inst.dm);
  Saturator sat(inst.rules, inst.dm, index);
  SaturationResult first = sat.Saturate(inst.input, inst.z0);
  SaturationResult second = sat.Saturate(first.fixed, first.covered);
  EXPECT_TRUE(second.steps.empty());
  EXPECT_EQ(second.fixed, first.fixed);
  EXPECT_EQ(second.covered, first.covered);
}

TEST_P(UniqueFixPropertyTest, NormalizationPreservesSemantics) {
  RandomInstance inst = MakeRandomInstance(GetParam() * 77777 + 29);
  RuleSet normalized = inst.rules.Normalized();
  MasterIndex i1(inst.rules, inst.dm);
  MasterIndex i2(normalized, inst.dm);
  Saturator s1(inst.rules, inst.dm, i1);
  Saturator s2(normalized, inst.dm, i2);
  SaturationResult r1 = s1.CheckUniqueFix(inst.input, inst.z0);
  SaturationResult r2 = s2.CheckUniqueFix(inst.input, inst.z0);
  EXPECT_EQ(r1.unique, r2.unique);
  EXPECT_EQ(r1.covered, r2.covered);
  if (r1.unique) EXPECT_EQ(r1.fixed, r2.fixed);
}

TEST_P(UniqueFixPropertyTest, TransFixMatchesSaturatorWhenUnique) {
  RandomInstance inst = MakeRandomInstance(GetParam() * 1234577 + 41);
  MasterIndex index(inst.rules, inst.dm);
  Saturator sat(inst.rules, inst.dm, index);
  SaturationResult expected = sat.CheckUniqueFix(inst.input, inst.z0);
  if (!expected.unique) return;
  DependencyGraph graph(inst.rules);
  TransFix transfix(inst.rules, inst.dm, graph, index);
  TransFixResult tf = transfix.Run(inst.input, inst.z0);
  EXPECT_EQ(tf.tuple, expected.fixed);
  EXPECT_EQ(tf.validated, expected.covered);
}

TEST_P(UniqueFixPropertyTest, CoveredSetMonotoneInZ) {
  RandomInstance inst = MakeRandomInstance(GetParam() * 424243 + 55);
  MasterIndex index(inst.rules, inst.dm);
  Saturator sat(inst.rules, inst.dm, index);
  SaturationResult small = sat.Saturate(inst.input, inst.z0);
  // Adding one more validated attribute never shrinks the covered set...
  // as long as the added attribute was not previously *fixed* to a
  // different value (we validate with the input's original value, which
  // may disable downstream rules). Use an attribute from the fixed result
  // to keep values consistent.
  AttrSet all = inst.r->AllAttrs();
  for (AttrId extra : all.Minus(inst.z0).ToVector()) {
    AttrSet z2 = inst.z0;
    z2.Add(extra);
    Tuple t2 = inst.input;
    t2.Set(extra, small.fixed.at(extra));
    // Saturate applies the first of two conflicting proposals, so the
    // covered set of a non-unique fix depends on rule order and is not
    // defined; the claim holds only when the larger fix is unique.
    SaturationResult bigger = sat.CheckUniqueFix(t2, z2);
    if (!bigger.unique) continue;
    EXPECT_TRUE(small.covered.SubsetOf(bigger.covered.Union(z2)))
        << "covered set shrank when validating attribute " << extra;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, UniqueFixPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

}  // namespace
}  // namespace certfix

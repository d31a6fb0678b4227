/// \file naive_repair.h
/// \brief The naive reference engine the differential tests judge every
/// production engine against.
///
/// It re-implements the saturation semantics of Sect. 3 and the exact
/// unique-fix check of Theorem 4 row at a time, sharing nothing with the
/// code under test beyond Relation/Tuple storage: candidate masters come
/// from linear scans of Dm with Value (not ValueId) comparisons, and there
/// is no MasterIndex, no memo, no pool bridging and no sharding.
/// BatchRepair, the stream engine and the delta engine must all produce
/// its bytes under WriteCsv. Header-only: tests/CMakeLists.txt builds only
/// *_test.cc.

#ifndef CERTFIX_TESTS_REFERENCE_NAIVE_REPAIR_H_
#define CERTFIX_TESTS_REFERENCE_NAIVE_REPAIR_H_

#include <map>
#include <vector>

#include "relational/relation.h"
#include "rules/rule_set.h"

namespace certfix {
namespace reference {

/// Master rows tm with tm[Xm] = t[X] (Value equality), ascending.
inline std::vector<size_t> Candidates(const EditingRule& rule,
                                      const Relation& dm, const Tuple& t) {
  std::vector<size_t> rows;
  for (size_t m = 0; m < dm.size(); ++m) {
    bool agrees = true;
    for (size_t p = 0; p < rule.lhs().size() && agrees; ++p) {
      agrees = t.at(rule.lhs()[p]) == dm.Cell(m, rule.lhsm()[p]);
    }
    if (agrees) rows.push_back(m);
  }
  return rows;
}

/// One distinct tm[Bm] over the candidate rows, with the first candidate
/// row carrying it.
struct RhsValue {
  Value value;
  size_t row = 0;
};

/// Distinct tm[Bm] values over Candidates(rule, dm, t), in order of first
/// appearance.
inline std::vector<RhsValue> RhsValues(const EditingRule& rule,
                                       const Relation& dm, const Tuple& t) {
  std::vector<RhsValue> distinct;
  for (size_t m : Candidates(rule, dm, t)) {
    const Value v = dm.Cell(m, rule.rhsm());
    bool seen = false;
    for (const RhsValue& d : distinct) seen = seen || d.value == v;
    if (!seen) distinct.push_back(RhsValue{v, m});
  }
  return distinct;
}

/// Outcome of one naive saturation run.
struct RunResult {
  Tuple fixed;
  AttrSet covered;
  bool unique = true;
  std::vector<Value> excluded_proposals;
};

/// One saturation run: rules in order, each round's proposals applied
/// together. With `excluded` >= 0, proposals for that attribute are set
/// aside (collected, distinct) instead of applied — the per-attribute
/// re-run of the unique-fix check.
inline RunResult Run(const RuleSet& rules, const Relation& dm, const Tuple& t,
                     AttrSet z0, int excluded) {
  RunResult result;
  result.fixed = t;
  result.covered = z0;
  AttrSet z = z0;

  bool changed = true;
  while (changed) {
    changed = false;
    std::map<AttrId, std::vector<Value>> round;
    for (size_t i = 0; i < rules.size(); ++i) {
      const EditingRule& rule = rules.at(i);
      AttrId b = rule.rhs();
      if (z.Contains(b)) continue;
      if (!rule.premise_set().SubsetOf(z)) continue;
      if (!rule.pattern().Matches(result.fixed)) continue;
      for (const RhsValue& v : RhsValues(rule, dm, result.fixed)) {
        round[b].push_back(v.value);
      }
    }
    if (excluded >= 0) {
      auto it = round.find(static_cast<AttrId>(excluded));
      if (it != round.end()) {
        for (const Value& v : it->second) {
          bool seen = false;
          for (const Value& d : result.excluded_proposals) {
            seen = seen || d == v;
          }
          if (!seen) result.excluded_proposals.push_back(v);
        }
        round.erase(it);
      }
    }
    for (const auto& [attr, values] : round) {
      for (size_t k = 1; k < values.size(); ++k) {
        if (values[k] != values.front()) result.unique = false;
      }
      result.fixed.Set(attr, values.front());
      z.Add(attr);
      result.covered.Add(attr);
      changed = true;
    }
  }
  return result;
}

/// The exact unique-fix decision of Theorem 4, naive edition. `fixed` is
/// meaningful only when `unique`.
inline RunResult CheckUniqueFix(const RuleSet& rules, const Relation& dm,
                                const Tuple& t, AttrSet z0) {
  RunResult full = Run(rules, dm, t, z0, -1);
  if (!full.unique) return full;
  for (AttrId b : full.covered.Minus(z0).ToVector()) {
    RunResult excl = Run(rules, dm, t, z0, static_cast<int>(b));
    if (!excl.unique || excl.excluded_proposals.size() > 1) {
      full.unique = false;
      return full;
    }
  }
  return full;
}

/// Repairs a copy of `data`: every row with a unique fix takes it; every
/// other row is left unchanged.
inline Relation BatchRepair(const RuleSet& rules, const Relation& dm,
                            const Relation& data, AttrSet trusted) {
  Relation out = data;
  for (size_t i = 0; i < data.size(); ++i) {
    RunResult fix = CheckUniqueFix(rules, dm, data.at(i), trusted);
    if (fix.unique) out.SetRow(i, fix.fixed);
  }
  return out;
}

}  // namespace reference
}  // namespace certfix

#endif  // CERTFIX_TESTS_REFERENCE_NAIVE_REPAIR_H_

/// \file fix_state.h
/// \brief Single-step fix semantics as a test oracle: states, enabled
/// moves, and application (the t ->((Z,Tc),phi,tm) t' relation of
/// Sect. 3).
///
/// The engines never take single steps: they saturate a whole round at a
/// time through the MasterIndex value summaries (core/saturation.h).
/// FixState takes one justified move at a time instead, and finds its
/// master tuples with the linear scan of naive_repair.h, so a brute force
/// over every application order (property_test.cc) judges the Saturator
/// without the index the Saturator itself probes. Header-only:
/// tests/CMakeLists.txt builds only *_test.cc.

#ifndef CERTFIX_TESTS_REFERENCE_FIX_STATE_H_
#define CERTFIX_TESTS_REFERENCE_FIX_STATE_H_

#include <utility>
#include <vector>

#include "core/fix_state.h"
#include "reference/naive_repair.h"
#include "rules/rule_set.h"

namespace certfix {
namespace reference {

/// \brief The evolving state of a fixing process: the current tuple and the
/// validated attribute set Z. Z only grows; an attribute's value changes at
/// most once (when it enters Z via a move) — the monotonicity that makes
/// the uniqueness analysis of core/saturation.h exact.
class FixState {
 public:
  FixState(Tuple t, AttrSet z0) : tuple_(std::move(t)), z_(z0) {}

  const Tuple& tuple() const { return tuple_; }
  AttrSet validated() const { return z_; }

  /// A move is enabled iff premise(phi) is validated, rhs(phi) is not,
  /// t matches tp, and t[X] = tm[Xm] (Sect. 3's justified application).
  bool IsEnabled(const RuleSet& rules, const Relation& dm,
                 const FixMove& move) const {
    const EditingRule& rule = rules.at(move.rule_idx);
    if (!rule.premise_set().SubsetOf(z_)) return false;
    if (z_.Contains(rule.rhs())) return false;
    return rule.AppliesTo(tuple_, dm.at(move.master_idx));
  }

  /// All enabled moves under the current state: rules in order, each
  /// rule's master tuples in ascending row order.
  std::vector<FixMove> EnabledMoves(const RuleSet& rules,
                                    const Relation& dm) const {
    std::vector<FixMove> moves;
    for (size_t i = 0; i < rules.size(); ++i) {
      const EditingRule& rule = rules.at(i);
      if (!rule.premise_set().SubsetOf(z_)) continue;
      if (z_.Contains(rule.rhs())) continue;
      if (!rule.pattern().Matches(tuple_)) continue;
      for (size_t m : Candidates(rule, dm, tuple_)) {
        moves.push_back(FixMove{i, m, rule.rhs(), dm.Cell(m, rule.rhsm())});
      }
    }
    return moves;
  }

  /// Applies an enabled move: t[B] := tm[Bm], Z := Z + {B}.
  void Apply(const RuleSet& rules, const FixMove& move) {
    const EditingRule& rule = rules.at(move.rule_idx);
    tuple_.Set(rule.rhs(), move.value);
    z_.Add(rule.rhs());
  }

  /// True if no move is enabled (the fixpoint condition of Sect. 3).
  bool IsFixpoint(const RuleSet& rules, const Relation& dm) const {
    return EnabledMoves(rules, dm).empty();
  }

 private:
  Tuple tuple_;
  AttrSet z_;
};

}  // namespace reference
}  // namespace certfix

#endif  // CERTFIX_TESTS_REFERENCE_FIX_STATE_H_

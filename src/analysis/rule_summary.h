/// \file rule_summary.h
/// \brief Precomputed per-rule reachability / fan-out over a rule set.
///
/// DependencyGraph (core/) answers reachability questions by walking edges
/// on every call; the analyzer, which emits one row per rule, reads this
/// summary instead: one O(|Sigma|^2) precompute of the trusted closure
/// and each rule's downstream set.

#ifndef CERTFIX_ANALYSIS_RULE_SUMMARY_H_
#define CERTFIX_ANALYSIS_RULE_SUMMARY_H_

#include <cstddef>
#include <vector>

#include "core/dependency_graph.h"
#include "relational/attr_set.h"

namespace certfix {

/// \brief Summary of one (Sigma, Z) pair: schema-level closure of the
/// trusted region, and per-rule reachability, fan-out and downstream
/// rules.
class RuleSetSummary {
 public:
  /// Builds the summary from an existing dependency graph (the graph is
  /// only read during construction; the summary keeps no reference to it)
  /// and the trusted region Z.
  RuleSetSummary(const DependencyGraph& graph, AttrSet trusted);

  size_t num_rules() const { return fanout_.size(); }
  const AttrSet& trusted() const { return trusted_; }
  /// Schema-level forward closure of Z under Sigma: Z plus every rhs
  /// derivable by repeatedly firing rules whose premises are closed
  /// (RuleSet::Closure, master data ignored).
  const AttrSet& closure() const { return closure_; }

  /// Whether rule `i` can ever fire from Z: its premise is inside the
  /// closure and its target is not already trusted.
  bool Reachable(size_t i) const { return reachable_[i]; }
  /// Dependency-graph out-degree of rule `i`.
  size_t Fanout(size_t i) const { return fanout_[i]; }
  /// Rules reachable from `i` through one or more dependency edges,
  /// ascending. Contains `i` itself iff `i` lies on a cycle.
  const std::vector<size_t>& Downstream(size_t i) const {
    return downstream_[i];
  }

 private:
  AttrSet trusted_;
  AttrSet closure_;
  std::vector<bool> reachable_;
  std::vector<size_t> fanout_;
  /// downstream_[i]: strict-ish transitive successors (see Downstream).
  std::vector<std::vector<size_t>> downstream_;
};

}  // namespace certfix

#endif  // CERTFIX_ANALYSIS_RULE_SUMMARY_H_

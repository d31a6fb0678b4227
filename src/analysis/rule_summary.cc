#include "analysis/rule_summary.h"

namespace certfix {

RuleSetSummary::RuleSetSummary(const DependencyGraph& graph, AttrSet trusted)
    : trusted_(trusted) {
  const RuleSet& rules = graph.rules();
  const size_t n = rules.size();

  closure_ = rules.Closure(trusted);

  reachable_.resize(n);
  fanout_.resize(n);
  downstream_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const EditingRule& rule = rules.at(i);
    reachable_[i] = rule.premise_set().SubsetOf(closure_) &&
                    !trusted_.Contains(rule.rhs());
    fanout_[i] = graph.Successors(i).size();

    // BFS from i's successors: downstream_[i] omits i unless i is cyclic.
    std::vector<bool> seen(n, false);
    std::vector<size_t> stack(graph.Successors(i));
    for (size_t s : stack) seen[s] = true;
    while (!stack.empty()) {
      size_t u = stack.back();
      stack.pop_back();
      for (size_t v : graph.Successors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          stack.push_back(v);
        }
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (seen[j]) downstream_[i].push_back(j);
    }
  }
}

}  // namespace certfix

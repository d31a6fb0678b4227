/// \file exhaustive.h
/// \brief Active-domain machinery behind the enumeration-based exact
/// checkers (ConsistencyChecker, CoverageChecker, the ruleset analyzer).
///
/// These mirror the (co)NP algorithms in the proofs of Theorems 1, 2 and 6:
/// instantiate pattern rows over the active domain of (Sigma, Dm) plus one
/// fresh constant per attribute, and decide each instantiation with the
/// concrete PTIME checker. Exponential in the number of non-constant cells
/// on rule-mentioned attributes; intended for tests, small rule sets, and
/// the fixed-Sigma PTIME cases (Props 8, 11, 15).

#ifndef CERTFIX_CORE_EXHAUSTIVE_H_
#define CERTFIX_CORE_EXHAUSTIVE_H_

#include <set>
#include <vector>

#include "core/region.h"
#include "core/saturation.h"
#include "util/result.h"

namespace certfix {

/// dom: all constants in Dm and in the patterns of Sigma (proof of Thm 1).
std::set<Value> ActiveDomain(const RuleSet& rules, const Relation& dm);

/// A value of the attribute's type guaranteed not to be in `dom`;
/// successive `ordinal`s give distinct fresh values.
Value FreshValue(DataType type, size_t ordinal, const std::set<Value>& dom);

/// Instantiates one pattern row into concrete probe tuples over schema R:
///   - constant cells keep their constant;
///   - wildcard / negated cells on attributes *not mentioned* in Sigma are
///     bound to a single fresh value (their value cannot influence rules);
///   - wildcard cells on mentioned attributes range over dom + one fresh;
///   - negated cells on mentioned attributes range over the same minus the
///     negated constant;
///   - attributes outside Z are bound to one fresh value each (they are
///     unvalidated, so their initial value is never read).
/// Fails if the expansion would exceed `max_instances`. `dom_hint`, when
/// given, replaces the O(|Dm|) active-domain computation (any superset of
/// the true active domain is sound).
Result<std::vector<Tuple>> InstantiateRow(const RuleSet& rules,
                                          const Relation& dm,
                                          const std::vector<AttrId>& z,
                                          const PatternTuple& row,
                                          size_t max_instances = 100000,
                                          const std::set<Value>* dom_hint =
                                              nullptr);

}  // namespace certfix

#endif  // CERTFIX_CORE_EXHAUSTIVE_H_

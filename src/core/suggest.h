/// \file suggest.h
/// \brief Procedure Suggest (Fig. 6) and the suggestion re-check used by
/// Suggest+ (Sect. 5.2).

#ifndef CERTFIX_CORE_SUGGEST_H_
#define CERTFIX_CORE_SUGGEST_H_

#include "core/applicable_rules.h"
#include "core/cregion.h"
#include "core/saturation.h"

namespace certfix {

/// \brief Computes suggestions: a set S of attributes such that, once the
/// user additionally asserts t[S] correct, a certain region covering
/// Z ∪ S is matched and a certain fix is warranted (Sect. 5.2).
class Suggester {
 public:
  /// `base_index` (optional) lets Suggest share the engine's master
  /// indexes when validating candidate regions over refined rule sets,
  /// avoiding O(|Dm|) index builds per call.
  Suggester(const RuleSet& rules, const Relation& dm,
            const MasterIndex* base_index = nullptr)
      : rules_(&rules),
        dm_(&dm),
        base_index_(base_index),
        partial_cache_(dm) {}

  /// Suggest(t, Z): derive Sigma_t[Z]; compute a small S with
  /// closure_{Sigma_t[Z]}(Z ∪ S) = R (greedy, then locally minimized);
  /// verify a non-empty certain tableau anchored at t[Z] exists. Falls back
  /// to R \ Z when no smaller suggestion can be verified.
  AttrSet Suggest(const Tuple& t, AttrSet z);

  /// The re-check Suggest+ performs on cached nodes: is S still a
  /// suggestion for t w.r.t. t[Z]?
  bool IsSuggestion(const Tuple& t, AttrSet z, AttrSet s);

  /// Exposed for tests: Sigma_t[Z].
  ApplicableRules Applicable(const Tuple& t, AttrSet z) {
    return DeriveApplicableRules(*rules_, *dm_, &partial_cache_, t, z);
  }

 private:
  // Verifies that some master tuple yields a valid certain-region row for
  // (z_full, anchored at t on z_validated). Bounded probing.
  bool VerifyRegionRow(const RuleSet& applicable, const Tuple& t,
                       AttrSet z_validated, const std::vector<AttrId>& z_full);

  const RuleSet* rules_;
  const Relation* dm_;
  const MasterIndex* base_index_;
  PartialMasterIndexCache partial_cache_;
  std::optional<std::set<Value>> dom_cache_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_SUGGEST_H_

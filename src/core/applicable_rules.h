/// \file applicable_rules.h
/// \brief Derivation of the applicable rule set Sigma_t[Z] (Sect. 5.2).
///
/// For a tuple t with validated attributes Z, a rule phi contributes a
/// refined rule phi+ iff (a) rhs(phi) is outside Z, (b) t matches the
/// pattern on Xp ∩ Z, and (c) some master tuple matches the pattern on the
/// master side of Xp ∩ X and agrees with t on the master side of X ∩ Z.
/// phi+ extends the pattern attributes with X ∩ Z and pins their values to
/// t's validated constants (Prop 20 shows Sigma_t[Z] suffices).

#ifndef CERTFIX_CORE_APPLICABLE_RULES_H_
#define CERTFIX_CORE_APPLICABLE_RULES_H_

#include <map>
#include <memory>

#include "core/master_index.h"
#include "rules/rule_set.h"

namespace certfix {

/// \brief Lazily built per-(rule, key-subset) master indexes used by
/// condition (c). Cached because the validated sets repeat heavily across
/// a stream of input tuples entering through the same initial region.
class PartialMasterIndexCache {
 public:
  explicit PartialMasterIndexCache(const Relation& dm) : dm_(&dm) {}

  /// Master rows whose projection on `master_attrs` equals t's projection
  /// on `r_attrs` (positionally). The span stays valid while the cache
  /// lives.
  RowSpan Lookup(const std::vector<AttrId>& master_attrs, const Tuple& t,
                 const std::vector<AttrId>& r_attrs);

  size_t num_indexes() const { return cache_.size(); }
  const Relation& master() const { return *dm_; }

 private:
  const Relation* dm_;
  std::map<std::vector<AttrId>, std::unique_ptr<FlatKeyIndex>> cache_;
  std::vector<size_t> all_rows_;
  bool all_rows_ready_ = false;
};

/// \brief Derives Sigma_t[Z]. Also reports, per produced rule, the index of
/// the originating rule in Sigma.
struct ApplicableRules {
  RuleSet rules;
  std::vector<size_t> origin;  ///< origin[i] = index in the source Sigma
};

ApplicableRules DeriveApplicableRules(const RuleSet& sigma,
                                      const Relation& dm,
                                      PartialMasterIndexCache* cache,
                                      const Tuple& t, AttrSet z);

}  // namespace certfix

#endif  // CERTFIX_CORE_APPLICABLE_RULES_H_

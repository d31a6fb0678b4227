/// \file consistency.h
/// \brief The consistency problem (Sect. 4.1): does every tuple marked by
/// (Z, Tc) have a unique fix by (Sigma, Dm)?

#ifndef CERTFIX_CORE_CONSISTENCY_H_
#define CERTFIX_CORE_CONSISTENCY_H_

#include "core/exhaustive.h"
#include "core/region.h"
#include "core/saturation.h"
#include "util/result.h"

namespace certfix {

/// \brief Outcome of a consistency / coverage decision with a witness.
struct ConsistencyReport {
  bool consistent = true;
  bool covers_all = true;   ///< meaningful for certain-region checks
  std::vector<FixConflict> conflicts;
  AttrSet uncovered;        ///< attributes missed when !covers_all
};

/// \brief Checker fronting the PTIME concrete algorithm of Theorem 4 and
/// the enumeration-based general algorithm (coNP; Theorem 1) when rows
/// carry wildcards or negations on rule-mentioned attributes.
class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(const Saturator& sat) : sat_(&sat) {}

  /// True iff (Sigma, Dm) is consistent relative to (Z, Tc). Rows whose
  /// cells are concrete on all rule-mentioned attributes use the PTIME
  /// path; otherwise the active-domain enumeration is used (bounded by
  /// `max_instances` and failing with OutOfRange beyond it).
  Result<bool> IsConsistent(const Region& region,
                            size_t max_instances = 100000) const;

  /// Full report (conflicts) for a single concrete-enough row.
  Result<ConsistencyReport> CheckRow(const Region& region,
                                     const PatternTuple& row,
                                     size_t max_instances = 100000) const;

  const Saturator& saturator() const { return *sat_; }

 private:
  const Saturator* sat_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_CONSISTENCY_H_

/// \file cregion.h
/// \brief Certain-region derivation: the CompCRegion heuristic of [20] and
/// the GRegion greedy baseline of Sect. 6 (Exp-1(1)).
///
/// CompCRegion here is a reconstruction (the original is only sketched in
/// the paper): candidate attribute lists Z come from randomized backward
/// minimization of the schema-level closure, tableaux are materialized per
/// master tuple and validated with the concrete certainty checker, and
/// regions are ranked by a quality metric (master coverage, penalized by
/// |Z|). See DESIGN.md 2.2.

#ifndef CERTFIX_CORE_CREGION_H_
#define CERTFIX_CORE_CREGION_H_

#include <optional>

#include "core/coverage.h"
#include "core/region.h"
#include "core/saturation.h"
#include "util/random.h"

namespace certfix {

/// \brief Tuning knobs for region derivation.
struct CRegionOptions {
  size_t trials = 24;          ///< randomized minimization restarts
  size_t max_rows = 64;        ///< tableau rows materialized per region
  size_t sample_masters = 64;  ///< masters sampled for the quality metric
  double size_penalty = 0.05;  ///< quality penalty per Z attribute
  uint64_t seed = 7;
};

/// \brief Builds one tableau row for Z anchored at a master tuple tm:
/// pattern constants come from the used rules' patterns, key values from
/// tm via the lhs->lhsm correspondence, wildcards elsewhere. Returns
/// nullopt when cells conflict or a used rule's master-side pattern
/// rejects tm. If `anchor` is given, its values are pinned first for the
/// attributes in `anchor_attrs` (used for tuple-specific suggestions).
std::optional<PatternTuple> BuildRowForMaster(
    const RuleSet& rules, const std::vector<AttrId>& z, const Tuple& tm,
    const Tuple* anchor = nullptr, AttrSet anchor_attrs = AttrSet());

/// \brief Region derivation engine.
class RegionFinder {
 public:
  explicit RegionFinder(const Saturator& sat) : sat_(&sat) {}

  /// CompCRegion: ranked certain regions, best quality first. Every
  /// returned region has a non-empty validated tableau.
  std::vector<RankedRegion> ComputeCertainRegions(
      const CRegionOptions& opts = {}) const;

  /// The Z list CompCRegion would pick (smallest closure-minimal Z found
  /// over randomized restarts).
  std::vector<AttrId> CompCRegionZ(const CRegionOptions& opts = {}) const;

  /// GRegion: greedy baseline — at each stage pick the attribute that
  /// directly fixes the most uncovered attributes (one-step gains from the
  /// validated set only; zero-gain fallback picks the attribute occurring
  /// most often in premises of rules with uncovered rhs; attributes no
  /// rule can fix are appended).
  std::vector<AttrId> GRegionZ() const;

  /// Materializes and validates a tableau for Z (rows from up to
  /// `opts.max_rows` master tuples); also returns the fraction of sampled
  /// masters that yielded a valid row via `coverage_out`.
  Region BuildRegion(const std::vector<AttrId>& z, const CRegionOptions& opts,
                     double* coverage_out = nullptr) const;

 private:
  const Saturator* sat_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_CREGION_H_

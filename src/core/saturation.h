/// \file saturation.h
/// \brief Batch saturation engine: computes fixes, covered sets, and exact
/// unique-fix decisions (the PTIME algorithm behind Theorem 4).
///
/// Semantics recap (Sect. 3): starting from a validated set Z0, a move
/// (phi, tm) may fire when premise(phi) is validated and rhs(phi) is not;
/// firing validates rhs(phi) with tm[Bm]. Enabling depends only on
/// validated values and is monotone, so (a) a full batch saturation reaches
/// the maximal covered set, and (b) the fix is unique iff for every
/// attribute B, the *B-excluded* saturation (never validating B) proposes
/// at most one distinct value for B. Any move that actually fires targeting
/// B has B-independent premises, which makes (b) exact. See DESIGN.md 2.1.

#ifndef CERTFIX_CORE_SATURATION_H_
#define CERTFIX_CORE_SATURATION_H_

#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fix_state.h"
#include "core/master_index.h"

namespace certfix {

/// \brief Two moves proposing distinct values for one attribute.
struct FixConflict {
  AttrId attr = 0;
  Value value_a;
  Value value_b;
  size_t rule_a = 0;
  size_t rule_b = 0;
  std::string ToString(const SchemaPtr& schema) const;
};

/// \brief Outcome of saturating a tuple.
struct SaturationResult {
  Tuple fixed;                       ///< Tuple after all applied moves
                                     ///< (the Tuple entry points only).
  AttrSet covered;                   ///< Z0 plus every attribute fixed.
  bool unique = true;                ///< No conflicting proposals found.
  std::vector<FixMove> steps;        ///< Moves applied, in round order.
  std::vector<FixConflict> conflicts;

  /// Certain fix: unique and covering all of R (Sect. 3).
  bool CertainOver(const SchemaPtr& schema) const {
    return unique && covered == schema->AllAttrs();
  }
};

/// \brief Saturation engine bound to (Sigma, Dm) plus its hash indexes.
///
/// One round loop (Run) saturates an IdRow (master_index.h): a move points
/// the attribute at the master value. The engines check their own rows;
/// the Tuple entry points (the paper's interactive algorithms, the
/// analyzer, the tests) build the row and return `fixed` in a private pool.
///
/// Thread safety: a fully constructed Saturator is safe for concurrent
/// use. No entry point writes any pool: a run writes only the caller's
/// IdRow and its own stack, the referenced RuleSet / Relation /
/// MasterIndex are only read, and the one lazily initialized member (the
/// Dom() cache) is guarded by a mutex. SetDomHint must not race with
/// readers.
class Saturator {
 public:
  Saturator(const RuleSet& rules, const Relation& dm,
            const MasterIndex& index)
      : rules_(&rules), dm_(&dm), index_(&index) {}

  /// Full saturation: applies rounds of enabled moves until fixpoint.
  /// Detects same-round conflicts only; `unique` is a *necessary* check
  /// here, the complete check is CheckUniqueFix below.
  SaturationResult Saturate(const Tuple& t, AttrSet z0) const;

  /// Saturation that never validates `excluded`; the first move proposing
  /// each distinct value for `excluded` across the run is appended to
  /// `proposals` (deduplicated by value), so a conflict names its rules.
  SaturationResult SaturateExcluding(const Tuple& t, AttrSet z0,
                                     AttrId excluded,
                                     std::vector<FixMove>* proposals) const;

  /// Exact unique-fix decision (and the fix itself when unique): full
  /// saturation plus one excluded saturation per covered target attribute.
  /// Mirrors the consistency algorithm in the proof of Theorem 4.
  SaturationResult CheckUniqueFix(const Tuple& t, AttrSet z0) const;
  /// The same check over an engine's row: on return `row` holds the full
  /// saturation's fix, and the result's `fixed` stays empty. `probes`,
  /// when given, records every master-index probe across the full and
  /// excluded runs — the dependency set the incremental engine
  /// invalidates on (fix_state.h).
  SaturationResult CheckUniqueFix(IdRow& row, AttrSet z0,
                                  ProbeLog* probes = nullptr) const;

  const RuleSet& rules() const { return *rules_; }
  const Relation& master() const { return *dm_; }
  const MasterIndex& index() const { return *index_; }

  /// Rules whose premises `z0` already validates (and with a non-empty
  /// lhs): exactly the rules round 1 of every saturation from `z0`
  /// probes the master for. Engines hand this list to
  /// MasterIndex::PrefetchRhsProbes when staging a block of tuples.
  std::vector<size_t> FirstRoundProbeRules(AttrSet z0) const;

  /// Active domain of (Sigma, Dm), computed once and cached. A hint set
  /// via SetDomHint (e.g. by Suggest, which creates short-lived saturators
  /// over refined rule sets) takes precedence; any superset of the true
  /// active domain is sound for fresh-value generation.
  const std::set<Value>& Dom() const;
  void SetDomHint(const std::set<Value>* dom) { dom_hint_ = dom; }

 private:
  // The round loop; excluded < 0 disables exclusion. Fixes `row` in place.
  // `probes`, when non-null, records a ProbeKeyHash for every RhsValues
  // call this run performs.
  SaturationResult Run(IdRow& row, AttrSet z0, int excluded,
                       std::vector<FixMove>* proposals,
                       ProbeLog* probes) const;

  const RuleSet* rules_;
  const Relation* dm_;
  const MasterIndex* index_;
  const std::set<Value>* dom_hint_ = nullptr;
  mutable std::mutex dom_mutex_;  ///< guards dom_cache_ initialization
  mutable std::optional<std::set<Value>> dom_cache_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_SATURATION_H_

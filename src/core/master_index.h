/// \file master_index.h
/// \brief Per-rule hash indexes into the master relation.

#ifndef CERTFIX_CORE_MASTER_INDEX_H_
#define CERTFIX_CORE_MASTER_INDEX_H_

#include <map>
#include <memory>
#include <vector>

#include "relational/flat_key_index.h"
#include "rules/rule_set.h"

namespace certfix {

/// \brief Indexes Dm so that, for each rule phi and input tuple t, the
/// distinct values tm[Bm] over the master tuples tm with tm[Xm] = t[X] are
/// found with one hash probe (the hash tables of Sect. 5.1's complexity
/// analysis).
///
/// One structure: a value summary (key -> distinct tm[Bm] values with one
/// representative row) per distinct (Xm, Bm), on the flat open-addressing
/// FlatIdTable of flat_key_index.h, shared by rules with the same (Xm, Bm).
/// That is all the saturation engine, TransFix and the repair shards probe,
/// so a key matching thousands of master rows costs O(#distinct values),
/// not O(#rows). The row-level linear scan the tests judge it against lives
/// in tests/reference/naive_repair.h.
///
/// The sharing constructor reuses the summaries of an existing index for
/// a refined rule set (e.g. Sigma_t[Z], whose rules keep their Xm/Bm),
/// avoiding any O(|Dm|) work per Suggest call.
///
/// Thread safety: all index structures are built in the constructor and
/// never mutated afterwards; RhsValues is a pure lookup, so a fully
/// constructed MasterIndex is safe for concurrent read-only use (the
/// repair shards share one instance). A PoolBridge passed to the probe
/// calls is per-thread state owned by the caller.
class MasterIndex {
 public:
  /// One distinct rhs value tm[Bm] with its master-pool id and a
  /// representative master row carrying it. The id lets the saturation
  /// engine compare proposals as integers.
  struct RhsValue {
    Value value;
    ValueId id = kNullValueId;
    size_t row = 0;
  };
  using RhsSummary = std::vector<RhsValue>;

  MasterIndex(const RuleSet& rules, const Relation& dm);
  /// Shares value summaries with `share_from` (must be built over the
  /// same Dm); only genuinely new (Xm, Bm) combinations are built fresh.
  MasterIndex(const RuleSet& rules, const Relation& dm,
              const MasterIndex& share_from);

  /// Distinct values tm[Bm] over the master rows tm with tm[Xm] = t[X],
  /// in order of first appearance, each with its first such row. Size > 1
  /// means conflicting master proposals. `bridge`, when given, must
  /// translate t's pool into the master pool.
  const RhsSummary& RhsValues(size_t rule_idx, const Tuple& t,
                              PoolBridge* bridge = nullptr) const;

  /// Issues software prefetches for the value-summary buckets the given
  /// rules would probe on `t` — the staging half of the batched-probe
  /// pipeline. Callers pass the rules whose premises the trusted set
  /// already validates (round 1 of every saturation; see
  /// Saturator::FirstRoundProbeRules).
  void PrefetchRhsProbes(const Tuple& t, const std::vector<size_t>& rule_idxs,
                         PoolBridge* bridge = nullptr) const;

  /// The master relation's value pool (bridge targets point here).
  const PoolPtr& pool() const { return dm_->pool(); }
  size_t num_rules() const { return rule_to_value_.size(); }

 private:
  /// key (master-pool ids) -> distinct (value, id, representative row).
  struct ValueIndex {
    FlatIdTable table;                  // key -> summaries slot
    std::vector<RhsSummary> summaries;
    RhsSummary all_rows_summary;        // for empty-X rules
  };

  void Build(const RuleSet& rules, const MasterIndex* share_from);
  static std::shared_ptr<ValueIndex> BuildValueIndex(
      const Relation& dm, const std::vector<AttrId>& xm, AttrId bm);

  const Relation* dm_;
  std::vector<std::shared_ptr<ValueIndex>> value_indexes_;
  std::map<std::pair<std::vector<AttrId>, AttrId>, int> value_ids_;
  std::vector<int> rule_to_value_;
  std::vector<std::vector<AttrId>> probe_;  // per-rule X list
  static const RhsSummary kEmptySummary;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_MASTER_INDEX_H_

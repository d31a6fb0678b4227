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

class IdRow;

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
/// repair shards share one instance). An IdRow probe projects its master
/// ids directly; a PoolBridge passed to the Tuple probe is per-thread
/// state owned by the caller.
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

  /// Distinct values tm[Bm] over the master rows tm with tm[Xm] = row[X],
  /// in order of first appearance, each with its first such row. Size > 1
  /// means conflicting master proposals.
  const RhsSummary& RhsValues(size_t rule_idx, const IdRow& row) const;
  /// The same probe for a tuple of any pool (TransFix). `bridge`, when
  /// given, must translate t's pool into the master pool.
  const RhsSummary& RhsValues(size_t rule_idx, const Tuple& t,
                              PoolBridge* bridge = nullptr) const;

  /// Issues software prefetches for the value-summary buckets the given
  /// rules would probe on `row` — the staging half of the batched-probe
  /// pipeline. Callers pass the rules whose premises the trusted set
  /// already validates (round 1 of every saturation; see
  /// Saturator::FirstRoundProbeRules).
  void PrefetchRhsProbes(const IdRow& row,
                         const std::vector<size_t>& rule_idxs) const;

  /// The master relation's value pool (IdRow ids point here).
  const PoolPtr& pool() const { return dm_->pool(); }
  size_t num_rules() const { return rule_to_value_.size(); }
  /// Arity of the rules' R, and the attributes the rules read.
  size_t arity() const { return arity_; }
  const std::vector<AttrId>& relevant() const { return relevant_; }

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
  /// The summary rule `rule_idx`'s value index holds for `key`.
  const RhsSummary& Lookup(size_t rule_idx, const IdKey& key) const;

  const Relation* dm_;
  size_t arity_ = 0;
  std::vector<AttrId> relevant_;
  std::vector<std::shared_ptr<ValueIndex>> value_indexes_;
  std::map<std::pair<std::vector<AttrId>, AttrId>, int> value_ids_;
  std::vector<int> rule_to_value_;
  std::vector<std::vector<AttrId>> probe_;  // per-rule X list
  static const RhsSummary kEmptySummary;
};

/// \brief An input row in master-id space, the one layout the exact check
/// and the memo read: every fix copies a master value tm[Bm] into t
/// (Sect. 3), so a row needs no dictionary of its own. For each attribute
/// the rules read it holds the cell's master-pool id, or kInvalidValueId
/// when the master lacks the value, mapped read-only (ValuePool::Find)
/// once. Every cell's Value is read in place, so the caller's cells (an
/// owned vector, a relation's or a tuple's pool) must outlive the row.
/// Nothing here writes any pool.
class IdRow {
 public:
  /// Maps the cells `cell_of(a)` (const Value&, every attribute of R).
  template <typename CellOf>
  IdRow(const MasterIndex& index, const CellOf& cell_of)
      : master_(index.pool().get()), cells_(index.arity()) {
    for (size_t a = 0; a < cells_.size(); ++a) {
      cells_[a] = Cell{&cell_of(static_cast<AttrId>(a)), kInvalidValueId};
    }
    for (AttrId a : index.relevant()) {
      cells_[a].id = master_->Find(*cells_[a].value);
    }
  }

  const Value& at(AttrId a) const { return *cells_[a].value; }
  /// A relevant cell's master-pool id; kInvalidValueId if the master
  /// lacks the value.
  ValueId id_at(AttrId a) const { return cells_[a].id; }
  size_t size() const { return cells_.size(); }
  /// Sets attribute `a` to the master value with id `id`.
  void Fix(AttrId a, ValueId id) { cells_[a] = Cell{&master_->value(id), id}; }

 private:
  struct Cell {
    const Value* value;
    ValueId id;
  };
  const ValuePool* master_;
  std::vector<Cell> cells_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_MASTER_INDEX_H_

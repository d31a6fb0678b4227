/// \file repair_memo.h
/// \brief Per-shard memoization of whole-tuple repair outcomes.
///
/// RepairOneTuple is a deterministic function of (Sigma, Dm, Z, t's
/// values on the rule-relevant attributes): the premise checks read
/// t[lhs], pattern matching reads the pattern attributes, proposals land
/// on rhs attributes (whose values then feed later rounds through those
/// same sets), and only rhs attributes can change.
/// Every attribute outside that union is inert. So two tuples whose
/// projections on the relevant set are byte-identical repair identically
/// — and the skewed streams the scenario corpus models (zipf-skew,
/// hotset-shift, duplicate_rate) replay the same dirty patterns over and
/// over. RepairMemo caches the outcome keyed by that projection and
/// replays it for the price of a hash probe.
///
/// Keys are the relevant cells' master-pool ids (IdRow, master_index.h). A
/// value the master lacks gets a memo-local id, counted down from
/// kInvalidValueId so it never meets a master id, from a dictionary the
/// memo owns. Past kMaxEntries entries and dictionary values together the
/// memo clears wholesale (deterministic, and cheap next to the repairs it
/// saved). Master ids stay valid: only the delta engine changes its
/// master, and its pool only grows. A value a master delta brings in keys
/// by master id from then on, so a row carrying it may miss once.
///
/// Invalidation: each entry stores the ProbeLog hashes its repair
/// recorded. The delta engine flushes entries by probe hash when a
/// master delta touches the corresponding key (the same machinery that
/// re-repairs slots, fix_state.h) — collisions over-flush, never
/// under-flush. Engines running against an immutable master (batch,
/// stream) never flush.
///
/// Thread safety: none. One RepairMemo per shard worker, by design.

#ifndef CERTFIX_CORE_REPAIR_MEMO_H_
#define CERTFIX_CORE_REPAIR_MEMO_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "core/fix_state.h"
#include "core/repair_tuple.h"
#include "relational/flat_key_index.h"
#include "rules/rule_set.h"

namespace certfix {

class RepairMemo {
 public:
  /// Entries plus dictionary values the memo holds at most.
  static constexpr size_t kMaxEntries = size_t{1} << 16;

  /// One memoized outcome: the report, the cells the fix changed (master
  /// ids, as in TupleRepair), and the recorded master-probe dependency set.
  struct Entry {
    FixReport report;
    std::vector<FixedCell> changed;
    std::vector<uint64_t> probes;  ///< sorted, deduplicated
    IdKey key;                     ///< for table erase on flush
  };

  /// `trusted` is the Z every memoized repair ran under; `rules` defines
  /// the relevant attribute set.
  RepairMemo(const RuleSet& rules, AttrSet trusted);

  /// The cached entry for `row`'s relevant projection, or nullptr.
  const Entry* Find(const IdRow& row) const;

  /// Prefetches the table bucket `row` will probe (stage half of the
  /// batched pipeline).
  void Prefetch(const IdRow& row) const;

  /// Records the outcome of repairing `row`, with the repair's ProbeLog
  /// as the entry's invalidation key set.
  void Insert(const IdRow& row, const TupleRepair& repair,
              const ProbeLog& probes);

  /// Drops every entry whose recorded probes intersect `hashes`.
  void FlushProbes(const std::vector<uint64_t>& hashes);

  /// Drops every entry and the dictionary.
  void Clear();

  size_t entries() const { return live_entries_; }
  /// Dictionary values (cells the master lacks).
  size_t local_values() const { return local_ids_.size(); }
  const std::vector<AttrId>& relevant_attrs() const { return relevant_; }

 private:
  /// `row`'s key; false if the dictionary lacks one of its values.
  bool FindKey(const IdRow& row, IdKey* key) const;
  void EraseEntry(uint32_t slot);

  std::vector<AttrId> relevant_;
  AttrSet trusted_;
  FlatIdTable table_;            ///< relevant projection -> entries_ slot
  std::vector<Entry> entries_;   ///< slot-addressed; free slots recycled
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> probe_to_entries_;
  size_t live_entries_ = 0;
  /// The dictionary: each value the master lacks -> its memo-local id.
  std::unordered_map<Value, ValueId, ValueHash> local_ids_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_REPAIR_MEMO_H_

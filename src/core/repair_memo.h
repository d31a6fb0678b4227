/// \file repair_memo.h
/// \brief Per-shard memoization of whole-tuple repair outcomes.
///
/// RepairOneTuple is a deterministic function of (Sigma, Dm, Z, t's
/// values on the rule-relevant attributes): the premise checks read
/// t[lhs], pattern matching reads the pattern attributes, proposals land
/// on rhs attributes (whose values then feed later rounds through those
/// same sets), and the final DiffCount can only differ on rhs attributes.
/// Every attribute outside that union is inert. So two tuples whose
/// projections on the relevant set are byte-identical repair identically
/// — and the skewed streams the scenario corpus models (zipf-skew,
/// hotset-shift, duplicate_rate) replay the same dirty patterns over and
/// over. RepairMemo caches the outcome keyed by that projection and
/// replays it for the price of a hash probe.
///
/// Keys are the *local pool's* ValueIds (pool interning makes id
/// equality value equality within one pool), so a memo is only valid for
/// rows backed by one pool and must be Clear()ed whenever its owner
/// recycles that pool.
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
  /// One memoized outcome: the report, the cells the fix changed (attr,
  /// value — values are plain, so replay works across pool generations
  /// of the target row), and the recorded master-probe dependency set.
  struct Entry {
    FixReport report;
    std::vector<std::pair<AttrId, Value>> changed;
    std::vector<uint64_t> probes;  ///< sorted, deduplicated
    IdKey key;                     ///< for table erase on flush
  };

  /// `trusted` is the Z every memoized repair ran under; `rules` defines
  /// the relevant attribute set.
  RepairMemo(const RuleSet& rules, AttrSet trusted);

  /// The cached entry for `row`'s relevant projection, or nullptr.
  const Entry* Find(const Tuple& row);

  /// Prefetches the table bucket `row` will probe (stage half of the
  /// batched pipeline).
  void Prefetch(const Tuple& row) const;

  /// Records the outcome of repairing `row`, with the repair's ProbeLog
  /// as the entry's invalidation key set.
  void Insert(const Tuple& row, const TupleRepair& repair,
              const ProbeLog& probes);

  /// Rebuilds `repair` for `row` from a cached entry (`memo_hit` set).
  TupleRepair Replay(const Entry& entry, const Tuple& row) const;

  /// Drops every entry whose recorded probes intersect `hashes`.
  void FlushProbes(const std::vector<uint64_t>& hashes);

  /// Drops everything (pool recycle, missed invalidation window).
  void Clear();

  size_t entries() const { return live_entries_; }
  const std::vector<AttrId>& relevant_attrs() const { return relevant_; }

 private:
  void ProjectKey(const Tuple& row, IdKey* out) const;
  void EraseEntry(uint32_t slot);

  // Entries self-limit: past kMaxEntries the memo clears wholesale
  // (deterministic, and cheap next to the repairs it saved).
  static constexpr size_t kMaxEntries = 1u << 16;

  std::vector<AttrId> relevant_;
  AttrSet trusted_;
  FlatIdTable table_;            ///< relevant projection -> entries_ slot
  std::vector<Entry> entries_;   ///< slot-addressed; free slots recycled
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> probe_to_entries_;
  size_t live_entries_ = 0;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_REPAIR_MEMO_H_

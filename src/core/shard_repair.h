/// \file shard_repair.h
/// \brief The shard step of the online engines: one shard's repair state
/// and the stage-then-resolve walk over a block of tuples.
///
/// StreamRepairEngine and DeltaRepairEngine hand each shard blocks of
/// owned cell values (stream/ordered_pipeline.h). A ShardRepairer builds
/// them into rows of its own ValuePool — nothing else writes that pool
/// (the single-writer contract, value_pool.h) — probes the master through
/// its own PoolBridge, replays repeats from its own RepairMemo, and copies
/// every repaired row back out as owned Values, so results reach the
/// merge stage without touching shard state.
///
/// Thread safety: none. One ShardRepairer per shard, used by one thread
/// at a time.

#ifndef CERTFIX_CORE_SHARD_REPAIR_H_
#define CERTFIX_CORE_SHARD_REPAIR_H_

#include <cstdint>
#include <vector>

#include "core/repair_memo.h"
#include "core/repair_tuple.h"

namespace certfix {

/// \brief One repaired tuple leaving a shard. Plain values only, so it
/// can cross to the merge stage's thread.
struct RepairedRow {
  std::vector<Value> fixed;      ///< repaired row (the input row on conflict)
  FixReport report;
  std::vector<uint64_t> probes;  ///< master-probe hashes, when recorded
  bool memo_hit = false;         ///< replayed from the shard memo
};

class ShardRepairer {
 public:
  /// Every row repairs trusting `trusted`, memoized in a RepairMemo over
  /// `rules`.
  ShardRepairer(const RuleSet& rules, AttrSet trusted);

  /// Points the shard at `sat`: before the first block, and again after a
  /// master rebuild replaced the master pool. The shard pool and the memo
  /// keyed on its ids survive; only the bridge cache is rebuilt. Flushing
  /// memo entries the rebuild made stale is the caller's job.
  void Bind(const Saturator& sat);

  /// Bounded memory on unbounded streams: once the shard pool holds more
  /// than `max_values` values, drops it together with the bridge cache
  /// indexed by it and the memo keyed on its ids. Returns true when it
  /// did. Call between blocks: staged rows hold ids of the old pool.
  bool RecycleIfOver(size_t max_values);

  RepairMemo& memo() { return memo_; }

  /// Repairs one block of `n` rows in two passes. Stage: moves each
  /// row's cells (`values_of(j)`, a std::vector<Value>&) into a row of
  /// the shard pool and prefetches its memo bucket and round-1
  /// master-probe buckets, so the whole block's loads overlap. Resolve:
  /// repairs the rows in order with RepairOneTuple, recording
  /// master-probe hashes when `record_probes`, and calls
  /// `out(j, RepairedRow)` after each.
  template <typename ValuesOf, typename Out>
  void RepairBlock(size_t n, ValuesOf&& values_of, bool record_probes,
                   Out&& out) {
    rows_.clear();  // also drops a block an exception cut short
    for (size_t j = 0; j < n; ++j) Stage(std::move(values_of(j)));
    for (size_t j = 0; j < n; ++j) out(j, Repair(j, record_probes));
  }

 private:
  void Stage(std::vector<Value> values);
  RepairedRow Repair(size_t j, bool record_probes);

  SchemaPtr schema_;
  AttrSet trusted_;
  AttrSet all_;
  const Saturator* sat_ = nullptr;
  PoolPtr pool_;
  PoolBridge bridge_{nullptr, nullptr};
  RepairMemo memo_;
  std::vector<size_t> first_round_;  ///< rules round 1 probes, per Bind
  std::vector<Tuple> rows_;          ///< staged rows of the current block
};

}  // namespace certfix

#endif  // CERTFIX_CORE_SHARD_REPAIR_H_

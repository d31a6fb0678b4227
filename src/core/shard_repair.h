/// \file shard_repair.h
/// \brief The shard step of all three engines: one shard's repair state
/// and the stage-then-resolve walk over a block of tuples.
///
/// BatchRepair, StreamRepairEngine and DeltaRepairEngine each own one
/// ShardRepairer per ring of their ordered shard pipeline
/// (stream/ordered_pipeline.h) and hand it blocks of rows: owned cell
/// values, or rows of the batch input. A ShardRepairer builds them into
/// rows of its own ValuePool — nothing else writes that pool (the
/// single-writer contract, value_pool.h) — probes the master through its
/// own PoolBridge, replays repeats from its own RepairMemo, and copies
/// repaired rows back out as owned Values, so results reach the merge
/// stage without touching shard state.
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

/// What a shard's results carry besides the report: the engine's needs.
enum class ShardOutput {
  kRows,           ///< every row, repaired or not (the stream engine)
  kRowsAndProbes,  ///< every row and its master-probe hashes (delta)
  kChangedRows,    ///< only rows a fix changed (batch)
};

/// Values a stream or delta shard's pool may hold before it is recycled
/// (RecycleIfOver, between blocks): keeps a shard's dictionary around a
/// few MB on string-heavy streams.
constexpr size_t kShardPoolLimit = size_t{1} << 16;

/// \brief One repaired tuple leaving a shard. Plain values only, so it
/// can cross to the merge stage's thread.
struct RepairedRow {
  /// The repaired row (the input row on conflict). Empty under
  /// ShardOutput::kChangedRows when no cell changed.
  std::vector<Value> fixed;
  FixReport report;
  std::vector<uint64_t> probes;  ///< under ShardOutput::kRowsAndProbes
  bool memo_hit = false;         ///< replayed from the shard memo
};

/// Two cache lines apart: engines keep their shards side by side in one
/// vector, each written by its own worker on every tuple, and x86's
/// adjacent-line prefetcher pairs 64-byte lines.
class alignas(128) ShardRepairer {
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
  /// indexed by it, the memo keyed on its ids and the last block's staged
  /// rows, so the old pool is freed here. Returns true when it did. Call
  /// between blocks.
  bool RecycleIfOver(size_t max_values);
  /// How many times RecycleIfOver recycled.
  uint64_t recycles() const { return recycles_; }

  RepairMemo& memo() { return memo_; }

  /// Repairs one block of `n` rows in two passes. Stage: builds each
  /// row (`values_of(j)`: a std::vector<Value>& whose cells it moves, or
  /// a Tuple of another pool, only read) into a row of the shard pool and
  /// prefetches its memo bucket and round-1 master-probe buckets, so the
  /// whole block's loads overlap. Resolve: repairs the rows in order with
  /// RepairOneTuple and calls `out(j, RepairedRow)` after each, filled as
  /// `output` asks.
  template <typename ValuesOf, typename Out>
  void RepairBlock(size_t n, ValuesOf&& values_of, ShardOutput output,
                   Out&& out) {
    rows_.clear();  // also drops a block an exception cut short
    for (size_t j = 0; j < n; ++j) Stage(values_of(j));
    for (size_t j = 0; j < n; ++j) out(j, Repair(j, output));
  }

 private:
  void Stage(std::vector<Value>& values);  ///< moves the cells out
  void Stage(const Tuple& source);
  void StageRow(Tuple row);  ///< `row` is in the shard pool
  RepairedRow Repair(size_t j, ShardOutput output);

  SchemaPtr schema_;
  AttrSet trusted_;
  AttrSet all_;
  const Saturator* sat_ = nullptr;
  PoolPtr pool_;
  PoolBridge bridge_{nullptr, nullptr};
  RepairMemo memo_;
  std::vector<size_t> first_round_;  ///< rules round 1 probes, per Bind
  std::vector<Tuple> rows_;          ///< staged rows of the current block
  uint64_t recycles_ = 0;
};

/// `n` shards repairing trusting `trusted`, bound to `sat`: the shard
/// state of a pipeline with n workers, or with none when n = 1.
std::vector<ShardRepairer> MakeShards(size_t n, const Saturator& sat,
                                      AttrSet trusted);

}  // namespace certfix

#endif  // CERTFIX_CORE_SHARD_REPAIR_H_

/// \file shard_repair.h
/// \brief The shard step of all three engines: one shard's repair state
/// and the stage-then-resolve walk over a block of tuples.
///
/// BatchRepair, StreamRepairEngine and DeltaRepairEngine each own one
/// ShardRepairer per ring of their ordered shard pipeline
/// (stream/ordered_pipeline.h) and hand it blocks of rows: owned cell
/// vectors, or rows of the batch input read in place. A ShardRepairer
/// maps each row read-only into the master's ids (IdRow,
/// core/master_index.h), replays repeats from its own RepairMemo, and
/// hands back the cells a fix changed — written into the caller's own
/// vector, which moves on to the merge stage. It owns no pool and
/// writes none.
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
  kChangedRows,    ///< only the changed cells, rows read in place (batch)
};

/// \brief One repaired tuple leaving a shard: its repair, plus what the
/// engine asked for. Plain values only, so it can cross to the merge
/// stage's thread.
struct RepairedRow : TupleRepair {
  /// The caller's row with the changed cells overwritten (the input row
  /// on conflict). Empty under ShardOutput::kChangedRows.
  std::vector<Value> fixed;
  std::vector<uint64_t> probes;  ///< under ShardOutput::kRowsAndProbes
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
  /// master rebuild. The memo survives (the master ids it is keyed on stay
  /// valid); flushing the entries the rebuild made stale is the caller's
  /// job.
  void Bind(const Saturator& sat);

  RepairMemo& memo() { return memo_; }

  /// Repairs one block of `n` rows in two passes. Stage: maps each row
  /// (`row_of(j)`: a std::vector<Value>& for kRows and kRowsAndProbes, a
  /// Tuple for kChangedRows) to master ids and prefetches its memo bucket
  /// and round-1 master-probe buckets, so the whole block's loads overlap.
  /// Resolve: repairs the rows in order with RepairOneTuple and calls
  /// `out(j, RepairedRow)` after each, filled as `output` asks; a vector
  /// row moves into it with only its changed cells overwritten.
  template <typename RowOf, typename Out>
  void RepairBlock(size_t n, RowOf&& row_of, ShardOutput output, Out&& out) {
    staged_.clear();  // also drops a block an exception cut short
    for (size_t j = 0; j < n; ++j) {
      auto&& row = row_of(j);  // a Tuple's cells stay in its pool
      Stage(IdRow(sat_->index(),
                  [&row](AttrId a) -> const Value& { return row[a]; }),
            VectorOf(row));
    }
    for (size_t j = 0; j < n; ++j) out(j, Repair(j, output));
  }

 private:
  /// A staged row and the caller's vector behind it (none for a Tuple).
  struct Staged {
    IdRow row;
    std::vector<Value>* values;
  };
  static std::vector<Value>* VectorOf(std::vector<Value>& row) { return &row; }
  static std::vector<Value>* VectorOf(const Tuple&) { return nullptr; }
  void Stage(IdRow row, std::vector<Value>* values);
  RepairedRow Repair(size_t j, ShardOutput output);

  AttrSet trusted_;
  AttrSet all_;
  const Saturator* sat_ = nullptr;
  RepairMemo memo_;
  std::vector<size_t> first_round_;  ///< rules round 1 probes, per Bind
  std::vector<Staged> staged_;       ///< the current block
};

/// `n` shards repairing trusting `trusted`, bound to `sat`: the shard
/// state of a pipeline with n workers, or with none when n = 1.
std::vector<ShardRepairer> MakeShards(size_t n, const Saturator& sat,
                                      AttrSet trusted);

}  // namespace certfix

#endif  // CERTFIX_CORE_SHARD_REPAIR_H_

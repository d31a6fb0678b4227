#include "core/batch_repair.h"

#include <memory>

#include "analysis/analyzer.h"
#include "core/repair_memo.h"
#include "core/repair_tuple.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace certfix {

void BatchRepair::RepairRange(const Relation& data, AttrSet trusted,
                              AttrSet all, size_t begin, size_t end,
                              const PoolPtr& local_pool,
                              ShardResult* out) const {
  CERTFIX_SPAN("batch.shard_repair");
  // One bridge for the whole range: every row's cells live in the same
  // pool (the shard-local one, or the input's on the sequential path), so
  // each distinct value is hashed into master-pool id space once.
  const PoolPtr& probe_pool = local_pool != nullptr ? local_pool : data.pool();
  PoolBridge bridge(probe_pool.get(), sat_->index().pool().get());
  std::unique_ptr<RepairMemo> memo;
  if (options_.use_memo) {
    memo = std::make_unique<RepairMemo>(sat_->rules(), trusted);
  }
  const std::vector<size_t> first_round = sat_->FirstRoundProbeRules(trusted);
  std::vector<Tuple> rows;
  rows.reserve(kProbeBlock);
  for (size_t base = begin; base < end; base += kProbeBlock) {
    const size_t n = std::min(kProbeBlock, end - base);
    rows.clear();
    // Stage: materialize the block's rows and push their memo buckets and
    // round-1 value-summary buckets into the cache...
    for (size_t j = 0; j < n; ++j) {
      Tuple row = local_pool != nullptr
                      ? data.at(base + j).RebasedTo(local_pool)
                      : data.at(base + j);
      if (memo != nullptr) memo->Prefetch(row);
      sat_->index().PrefetchRhsProbes(row, first_round, &bridge);
      rows.push_back(std::move(row));
    }
    // ...then resolve: repair in row order while the lines are in flight.
    for (size_t j = 0; j < n; ++j) {
      const size_t i = base + j;
      TupleRepair r = RepairOneTuple(*sat_, rows[j], trusted, all, &bridge,
                                     nullptr, memo.get());
      switch (r.report.kind) {
        case FixClass::kConflicting:
          ++out->conflicting;
          out->conflict_rows.push_back(i);
          continue;
        case FixClass::kFullyCovered:
          ++out->fully_covered;
          break;
        case FixClass::kPartial:
          ++out->partial;
          break;
        case FixClass::kUntouched:
          ++out->untouched;
          break;
      }
      out->cells_changed += r.report.cells_changed;
      if (r.report.cells_changed > 0) {
        out->changed.emplace_back(i, std::move(r.fixed));
      }
    }
  }
  if (memo != nullptr) {
    out->memo_hits = memo->hits();
    out->memo_misses = memo->misses();
  }
}

BatchRepairResult BatchRepair::Repair(const Relation& data,
                                      AttrSet trusted) const {
  BatchRepairResult result;
  result.repaired = data;
  AttrSet all = sat_->rules().r_schema()->AllAttrs();

  size_t threads = options_.num_threads == 0 ? DefaultParallelism()
                                             : options_.num_threads;
  std::vector<ShardResult> shards;
  if (threads <= 1) {
    // Sequential reference path: the original tuple-at-a-time loop, no
    // rebasing (rows keep interning into the shared input pool).
    shards.resize(1);
    RepairRange(data, trusted, all, 0, data.size(), nullptr, &shards[0]);
  } else {
    // Partition -> repair-shard -> deterministic merge. Shards are
    // contiguous row ranges; each worker interns into its own local pool
    // and fills its own ShardResult slot, so no pool is written
    // concurrently. Merging in shard order makes the output, counters,
    // and conflict_rows independent of scheduling.
    shards.resize(NumChunks(data.size(), threads, options_.chunk_size));
    ParallelFor(data.size(), threads, options_.chunk_size,
                [&](size_t chunk, size_t begin, size_t end) {
                  PoolPtr local = std::make_shared<ValuePool>();
                  RepairRange(data, trusted, all, begin, end, local,
                              &shards[chunk]);
                });
  }
  CERTFIX_SPAN("batch.merge");
  for (ShardResult& s : shards) {
    result.tuples_fully_covered += s.fully_covered;
    result.tuples_partial += s.partial;
    result.tuples_untouched += s.untouched;
    result.tuples_conflicting += s.conflicting;
    result.cells_changed += s.cells_changed;
    result.memo_hits += s.memo_hits;
    result.memo_misses += s.memo_misses;
    result.conflict_rows.insert(result.conflict_rows.end(),
                                s.conflict_rows.begin(),
                                s.conflict_rows.end());
    // SetRow re-interns only cells that differ, so shard-local ids merge
    // into the output pool at cost proportional to the repair size.
    for (const auto& [row, fixed] : s.changed) {
      result.repaired.SetRow(row, fixed);
    }
  }
  // Fold run totals into the registry so `--metrics-json` mirrors the
  // result struct without threading a handle through the shard workers.
  telemetry::Registry* reg = telemetry::Registry::Global();
  reg->GetCounter("batch.rows")->Add(data.size());
  reg->GetCounter("batch.fully_covered")->Add(result.tuples_fully_covered);
  reg->GetCounter("batch.partial")->Add(result.tuples_partial);
  reg->GetCounter("batch.untouched")->Add(result.tuples_untouched);
  reg->GetCounter("batch.conflicting")->Add(result.tuples_conflicting);
  reg->GetCounter("batch.cells_changed")->Add(result.cells_changed);
  reg->GetCounter("batch.memo_hits")->Add(result.memo_hits);
  reg->GetCounter("batch.memo_misses")->Add(result.memo_misses);
  return result;
}

Result<BatchRepairResult> BatchRepair::RepairChecked(const Relation& data,
                                                     AttrSet trusted) const {
  CERTFIX_RETURN_IF_ERROR(
      GateRuleset(*sat_, trusted, options_.analyze_first, "BatchRepair"));
  return Repair(data, trusted);
}

}  // namespace certfix

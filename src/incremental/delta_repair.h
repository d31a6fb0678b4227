/// \file delta_repair.h
/// \brief Update-aware incremental repair engine: maintains a repaired
/// relation under a mutation stream (inserts, updates, deletes, and
/// master-data upserts), re-running RepairOneTuple only on the invalidated
/// region instead of the whole relation.
///
/// Correctness contract (the oracle tests/delta_differential_test.cc
/// hammers): after any delta sequence, SnapshotRepaired() is byte-identical
/// (under WriteCsv) to BatchRepair run from scratch over the final input
/// and final master data, at any shard count.
///
/// Why incremental repair is exact here: a tuple's repair is a
/// deterministic function of the tuple, the trusted set Z, Sigma, and the
/// answers to the master-index probes the saturation issues — tuples never
/// read each other. Hence:
///
///  * Insert/Update/Delete of an input tuple invalidates exactly that
///    tuple (an update that changes no cell invalidates nothing — cell
///    level dirty tracking via Relation::UpdateRow).
///  * A master upsert can only change the answers of probes whose key
///    matches the touched master row's old or new (Xm, Bm) projection, for
///    rules whose master side reads a changed attribute
///    (DependencyGraph::RulesReadingMasterAttrs). Every repair records its
///    probe set as (rule, key) hashes (ProbeLog, fix_state.h); the engine
///    keeps the reverse map hash -> tuples, so a master delta re-repairs
///    exactly the tuples that depended on an affected probe — hash
///    collisions over-invalidate (sound), never under-invalidate.
///
/// Pipeline: repairs ride the ordered shard pipeline the streaming engine
/// runs on (stream/ordered_pipeline.h) — repair jobs are admitted with a
/// sequence number, routed by slot over bounded rings to shard workers,
/// each repairing blocks with its own ShardRepairer (core/shard_repair.h),
/// and results are applied to the maintained state strictly in seq order
/// under the pipeline's merge lock, so the maintained relation, all
/// counters, and the probe index are byte-identical at any worker count.
/// At one shard the pipeline runs in zero-worker mode: each job repairs
/// and applies on the caller's thread. Master deltas are barriers: the
/// engine drains in-flight jobs, mutates the master, and rebuilds the
/// MasterIndex/Saturator lazily before the next repair (consecutive master
/// deltas share one rebuild).
///
/// Memory: deleted rows leave tombstoned slots in the backing store (live
/// order is an indirection vector); a long-lived engine under heavy churn
/// grows with total inserts, not live rows. Shard pools recycle as in the
/// streaming engine.
///
/// Threading contract for callers: all public methods must be called from
/// one thread (the mutation stream is inherently ordered). Shard workers
/// are internal.

#ifndef CERTFIX_INCREMENTAL_DELTA_REPAIR_H_
#define CERTFIX_INCREMENTAL_DELTA_REPAIR_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/analyze_mode.h"
#include "analysis/rule_summary.h"
#include "core/dependency_graph.h"
#include "core/master_index.h"
#include "core/shard_repair.h"
#include "stream/delta_source.h"
#include "stream/ordered_pipeline.h"
#include "telemetry/metrics.h"

namespace certfix {

/// \brief Execution knobs, mirroring StreamOptions.
struct DeltaRepairOptions {
  /// Shard-worker count. 1 = inline sequential repair (the differential
  /// reference); 0 = one per hardware thread.
  size_t num_shards = 1;
  /// Slots per shard ring; also sizes the in-flight admission window.
  size_t queue_capacity = 256;
  /// Recycle a shard's ValuePool once it exceeds this many values.
  size_t pool_recycle_values = 1u << 16;
  /// Ruleset analysis at construction (analysis/analyzer.h): warn logs
  /// every diagnostic and proceeds; strict refuses the session — every
  /// mutator returns the Inconsistent verdict (conflict witness included).
  AnalyzeMode analyze_first = AnalyzeMode::kOff;
  /// Per-shard repair memoization (core/repair_memo.h). Unlike the batch
  /// and stream engines, the memo here survives master rebuilds: a
  /// rebuild flushes exactly the entries whose recorded probes a master
  /// delta could have re-answered (the same hash machinery that drives
  /// slot invalidation), so hot entries keep paying off across epochs.
  /// Output-invisible; hit/miss tallies surface in DeltaRepairStats.
  bool use_memo = true;
  /// Master-index implementation for every internal build and rebuild.
  /// kMap keeps the legacy std::unordered_map path alive as the A/B
  /// oracle for the flat table (tests/scenario_corpus_test.cc).
  IndexKind index_kind = IndexKind::kFlat;
};

/// \brief Counters. The live-state fields (rows..cells_changed) mirror
/// BatchRepairResult over the currently maintained relation; the activity
/// fields measure how much work the mutation stream actually caused.
struct DeltaRepairStats {
  uint64_t deltas_applied = 0;     ///< mutations accepted
  uint64_t tuples_repaired = 0;    ///< RepairOneTuple runs (incl. loads)
  uint64_t tuples_invalidated = 0; ///< re-repairs forced by master deltas
  uint64_t master_rebuilds = 0;    ///< MasterIndex/Saturator rebuilds
  uint64_t noop_updates = 0;       ///< updates/upserts changing no cell
  uint64_t rows = 0;               ///< live rows
  uint64_t fully_covered = 0;
  uint64_t partial = 0;
  uint64_t untouched = 0;
  uint64_t conflicting = 0;
  uint64_t cells_changed = 0;      ///< live input-vs-repaired cell diffs
  uint64_t memo_hits = 0;          ///< repairs replayed from a shard memo
  uint64_t memo_misses = 0;        ///< repairs computed (and memoized)
  uint64_t max_reorder = 0;        ///< high-water mark of the reorder buffer
  uint64_t pool_recycles = 0;      ///< shard pools reset (bounded memory)
};

/// \brief Long-lived engine owning the repaired relation plus its
/// KeyIndex/MasterIndex state.
class DeltaRepairEngine {
 public:
  /// `rules` must outlive the engine. `master` is copied into an
  /// engine-private pool (the engine mutates its master on kMaster*
  /// deltas). Every maintained tuple trusts its cells on `trusted`.
  DeltaRepairEngine(const RuleSet& rules, const Relation& master,
                    AttrSet trusted, DeltaRepairOptions options = {});
  /// Adopting overload: takes ownership of `master` without copying it.
  /// The relation (and its pool) must be private to the engine from here
  /// on — this is how a memory-mapped snapshot master stays out-of-core
  /// instead of being materialized row by row (storage/columnar.h; the
  /// copy-on-write IdColumn promotes only the columns master deltas
  /// actually touch).
  DeltaRepairEngine(const RuleSet& rules, Relation&& master, AttrSet trusted,
                    DeltaRepairOptions options = {});

  DeltaRepairEngine(const DeltaRepairEngine&) = delete;
  DeltaRepairEngine& operator=(const DeltaRepairEngine&) = delete;

  /// Bulk-inserts every row of `input` (the initial repair rides the same
  /// sharded pipeline, so loading is parallel at num_shards > 1).
  Status Load(const Relation& input);

  /// Applies one delta; field vectors are parsed against the input or
  /// master schema (same typing as CSV loading).
  Status Apply(const Delta& delta);
  /// Applies every delta `source` yields.
  Status ApplyAll(DeltaSource* source);

  Status Insert(const Tuple& t);
  Status Update(size_t pos, const Tuple& t);  ///< pos: 0-based live position
  Status Delete(size_t pos);
  Status MasterInsert(const Tuple& t);
  Status MasterUpdate(size_t pos, const Tuple& t);
  Status MasterDelete(size_t pos);

  /// Drains the pipeline and applies any pending invalidation, so reads
  /// below observe every mutation. Rethrows the first worker error.
  void Flush();

  /// Live row count (cheap; no flush).
  size_t size() const { return order_.size(); }
  const SchemaPtr& schema() const { return schema_; }
  /// The maintained master. Strictly read-only: interning into its pool
  /// (e.g. constructing a delta tuple with `Tuple(schema, master().pool())`)
  /// races the shard workers probing it — build delta tuples in their own
  /// pool instead.
  const Relation& master() const { return master_; }
  size_t num_shards() const {
    return std::max<size_t>(1, pipeline_.num_workers());
  }

  /// The maintained repaired relation, compacted to live rows in order
  /// (flushes first). Byte-identical under WriteCsv to the from-scratch
  /// BatchRepair oracle.
  Relation SnapshotRepaired();
  /// The maintained (unrepaired) input — what the oracle repairs.
  Relation SnapshotInput();
  /// Live positions whose last repair conflicted, ascending — mirrors
  /// BatchRepairResult::conflict_rows (flushes first).
  std::vector<size_t> ConflictPositions();
  /// Counter snapshot (flushes first so live-state fields are exact).
  DeltaRepairStats stats();

  /// The analyze_first verdict from construction. OK unless the options
  /// asked for strict analysis and the ruleset was rejected, in which
  /// case every mutator returns this status (witness in the message).
  const Status& precheck_status() const { return precheck_status_; }

  /// Precomputed per-rule reachability/fan-out shared with the
  /// master-delta invalidation path (analysis/rule_summary.h).
  const RuleSetSummary& summary() const { return summary_; }

 private:
  // Slot classification: FixClass values 0..3, plus pending (enqueued,
  // not yet applied) and dead (deleted).
  static constexpr uint8_t kPendingClass = 4;
  static constexpr uint8_t kDeadClass = 5;

  /// One master-rebuild epoch's memo invalidation: the probe hashes a
  /// master delta could have re-answered, linked to the previous epoch's
  /// node. Workers flush lazily — a worker that skipped epochs (its ring
  /// was idle) walks the chain from the job's head down to the epoch it
  /// last saw and applies every node on the way; if the chain was capped
  /// before reaching it, the worker drops its whole memo (sound, never
  /// stale). Nodes are immutable after publication; prev is cut only at
  /// the depth cap, under pipeline quiescence.
  struct MemoFlush {
    uint64_t epoch = 0;
    std::vector<uint64_t> hashes;
    std::shared_ptr<MemoFlush> prev;
  };
  /// Epochs are consecutive (every rebuild appends one node), so a chain
  /// of this depth serves workers up to this many epochs behind; older
  /// ones Clear(). Bounds chain memory under master-heavy churn.
  static constexpr size_t kMaxFlushChain = 32;

  /// One repair job riding a shard ring. Carries the saturator pointer and
  /// its epoch so workers rebind their pool bridge exactly when a master
  /// rebuild happened (the ring's mutex publishes the new saturator).
  struct Job {
    uint32_t slot = 0;
    uint64_t epoch = 0;
    const Saturator* sat = nullptr;
    std::shared_ptr<MemoFlush> flush;  ///< chain head at enqueue
    std::vector<Value> values;
  };
  /// One slot's repair result on its way to ApplyResult.
  struct Done {
    uint32_t slot = 0;
    RepairedRow row;
  };
  using Pipeline = OrderedShardPipeline<Job, Done>;

  Status CheckLive();
  /// Applies every flush-chain node with epoch > last_epoch to `memo`
  /// (oldest first); clears the memo outright when the chain no longer
  /// reaches last_epoch + 1. No-op on an empty memo.
  static void ApplyMemoFlush(RepairMemo* memo, const MemoFlush* head,
                             uint64_t last_epoch);
  /// Rebuilds MasterIndex/Saturator if a master delta staled them, then
  /// enqueues re-repairs for the invalidated slots.
  Status EnsureIndexFresh();
  Status EnqueueRepair(uint32_t slot);
  Pipeline::Step MakeShardStep();
  /// Applies one seq-ordered result to the maintained state. Caller holds
  /// the merge lock.
  void ApplyResult(Done& done);
  void UnregisterProbes(uint32_t slot);
  /// Marks every live slot that probed `row`'s key under one of
  /// `rule_idxs` dirty. Caller holds the merge lock.
  void InvalidateMasterRow(size_t row, const std::vector<size_t>& rule_idxs);
  void AddClass(uint8_t cls, int delta);

  const RuleSet* rules_;
  SchemaPtr schema_;
  SchemaPtr master_schema_;
  AttrSet trusted_;
  DeltaRepairOptions options_;
  DependencyGraph graph_;
  RuleSetSummary summary_;  ///< fronts graph_ on the invalidation path

  Relation master_;
  std::unique_ptr<MasterIndex> index_;
  std::unique_ptr<Saturator> sat_;
  uint64_t sat_epoch_ = 0;
  bool index_stale_ = false;
  Status precheck_status_;  ///< strict analyze_first verdict

  /// Slot stores: append-only; order_ holds the live slots in visible
  /// order. input_ is written by the caller thread only; repaired_ and the
  /// probe/class bookkeeping below are written under the merge lock
  /// (workers apply results there).
  Relation input_;
  Relation repaired_;
  std::vector<uint32_t> order_;
  std::set<uint32_t> dirty_slots_;  ///< pending master invalidation

  std::vector<std::vector<uint64_t>> slot_probes_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> probe_to_slots_;
  std::vector<uint8_t> slot_class_;
  std::vector<uint32_t> slot_cells_;  ///< per-slot cells_changed

  /// Memo-invalidation state, written by the caller thread only:
  /// pending_memo_flush_ gathers probe hashes as master deltas land and
  /// becomes the next epoch's MemoFlush node at the rebuild.
  std::vector<uint64_t> pending_memo_flush_;
  std::shared_ptr<MemoFlush> memo_flush_head_;

  telemetry::RegistryDiff<DeltaRepairStats> counts_;
  Pipeline pipeline_;  ///< last: its workers use everything above
};

}  // namespace certfix

#endif  // CERTFIX_INCREMENTAL_DELTA_REPAIR_H_

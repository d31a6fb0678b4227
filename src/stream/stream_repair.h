/// \file stream_repair.h
/// \brief Streaming point-of-entry repair engine: the paper's
/// data-monitoring reading of certain fixes (Sect. 1: correct tuples "at
/// the point of data entry", before errors propagate), as an online
/// subsystem over the batch machinery.
///
/// Pipeline: the ordered shard pipeline (stream/ordered_pipeline.h).
/// Push stamps each tuple with its admission seq and routes it by a hash
/// of its trusted cells t[Z] to one of `num_shards` shard workers, each
/// repairing blocks with its own ShardRepairer (core/shard_repair.h); the
/// merge stage hands records to the sink strictly in seq order.
///
/// Determinism: the sink sees records in exactly admission order, so the
/// output is byte-identical regardless of the shard count — and identical
/// to BatchRepair over the same rows, because both engines run the same
/// RepairOneTuple (core/repair_tuple.h).
///
/// Bounded memory: the per-shard rings are fixed-capacity, admission is
/// gated by an in-flight window of `num_shards * queue_capacity` tuples
/// (Push blocks — backpressure — until the merge stage catches up), so
/// the reorder buffer can never exceed the window; and each shard's
/// ValuePool is recycled once it outgrows `pool_recycle_values`, so an
/// unbounded stream of distinct values cannot grow a dictionary forever.
///
/// Single-writer pool contract (value_pool.h): the master pool is shared
/// read-only; each shard worker interns into its own pool, probing the
/// master through its own memoized PoolBridge; records cross the merge
/// boundary as owned Values, never as pool-backed tuples. No pool is
/// written concurrently, and no pool is read while another thread writes
/// it.
///
/// Threading contract for callers: Push/PushStrings may be called from
/// multiple producer threads, but Finish must not run concurrently with
/// any Push. Sinks are called serialized, in order (sink.h). The engine
/// reports to the telemetry registry that is Global() while it lives.

#ifndef CERTFIX_STREAM_STREAM_REPAIR_H_
#define CERTFIX_STREAM_STREAM_REPAIR_H_

#include <cstdint>
#include <vector>

#include "analysis/analyze_mode.h"
#include "core/shard_repair.h"
#include "stream/ordered_pipeline.h"
#include "stream/sink.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace certfix {

/// \brief Point-in-time copy of one engine's stream counters.
struct StreamSnapshot {
  uint64_t tuples_in = 0;       ///< tuples accepted by Push
  uint64_t tuples_out = 0;      ///< tuples emitted to the sink
  uint64_t fully_covered = 0;   ///< certain fix reached (covered = R)
  uint64_t partial = 0;         ///< some but not all attrs covered
  uint64_t untouched = 0;       ///< nothing beyond Z derivable
  uint64_t conflicting = 0;     ///< unique-fix check failed
  uint64_t cells_changed = 0;   ///< total attributes rewritten
  uint64_t backpressure_waits = 0;  ///< Push calls that blocked on a
                                    ///< full ring or in-flight window
  uint64_t pool_recycles = 0;   ///< shard pools reset (bounded memory)
  uint64_t max_reorder = 0;     ///< high-water mark of the merge buffer
  uint64_t memo_hits = 0;       ///< repairs replayed from a shard memo
  uint64_t memo_misses = 0;     ///< repairs computed (and memoized)
};

/// \brief Execution knobs for the streaming engine.
struct StreamOptions {
  /// Shard-worker count. 0 = one per hardware thread. Capped like
  /// ParallelFor at max(16, 2x hardware) — the cap never changes output,
  /// only routing.
  size_t num_shards = 1;
  /// Slots per shard ring; also sizes the in-flight window
  /// (num_shards * queue_capacity). At least 1.
  size_t queue_capacity = 256;
  /// Recycle a shard's ValuePool once it holds more than this many
  /// interned values. 0 recycles after every tuple (pathological but
  /// legal); the default keeps a shard's dictionary around a few MB on
  /// string-heavy streams.
  size_t pool_recycle_values = 1u << 16;
  /// Ruleset analysis at construction (analysis/analyzer.h): warn logs
  /// every diagnostic and proceeds; strict refuses the session — no
  /// workers are spawned, Push returns false, PushStrings and Finish
  /// surface the Inconsistent status with the conflict witness.
  AnalyzeMode analyze_first = AnalyzeMode::kOff;
  /// Per-shard repair memoization (core/repair_memo.h): repeated
  /// relevant projections — the hot paths of skewed streams — replay
  /// their recorded outcome instead of re-saturating. Output-invisible;
  /// hit/miss tallies surface in StreamSnapshot.
  bool use_memo = true;
};

/// \brief Long-lived online repair engine.
///
/// Construction spawns the shard workers; tuples flow as soon as they are
/// pushed; Finish() drains the pipeline and returns the final counters.
/// Destroying an unfinished engine still drains every pushed tuple to the
/// sink, but drops worker errors (call Finish() to observe them).
class StreamRepairEngine {
 public:
  /// `sat` and `sink` must outlive the engine. Every streamed tuple
  /// trusts its cells on `trusted` (the master-key attributes, e.g.
  /// verified ids — also the routing key).
  StreamRepairEngine(const Saturator& sat, AttrSet trusted,
                     StreamSink* sink, StreamOptions options = {});

  StreamRepairEngine(const StreamRepairEngine&) = delete;
  StreamRepairEngine& operator=(const StreamRepairEngine&) = delete;

  /// Enqueues one tuple (cells copied out; `t`'s pool is not retained).
  /// Blocks while the engine is at capacity. Returns false — tuple not
  /// accepted, nothing counted — for a tuple of another schema, after
  /// Finish(), or after a worker failed.
  bool Push(const Tuple& t);

  /// Parses `fields` against the schema (same typing as CSV loading) and
  /// pushes the resulting tuple. InvalidArgument on arity mismatch;
  /// Internal when the engine no longer accepts tuples.
  Status PushStrings(const std::vector<std::string>& fields);

  /// Closes ingress, drains every ring, joins the workers, and returns
  /// the final counters. Rethrows the first worker exception, once; on an
  /// engine the strict analysis refused, throws the refusal every time.
  /// Idempotent otherwise; must not race with Push.
  StreamSnapshot Finish();

  /// The analyze_first verdict from construction. OK unless the options
  /// asked for strict analysis and the ruleset was rejected, in which
  /// case the engine accepts no tuples and this carries the witness.
  const Status& precheck_status() const { return precheck_status_; }

  size_t num_shards() const { return pipeline_.num_workers(); }
  const SchemaPtr& schema() const { return schema_; }

 private:
  using Pipeline = OrderedShardPipeline<std::vector<Value>, RepairedRow>;

  bool Submit(std::vector<Value> values);  ///< admit + route + enqueue
  Pipeline::Step MakeShardStep();
  void EmitRecord(uint64_t seq, RepairedRow& row);  ///< in-order apply

  const Saturator* sat_;
  SchemaPtr schema_;
  AttrSet trusted_;
  std::vector<AttrId> trusted_attrs_;   ///< routing key, ascending
  StreamSink* sink_;
  StreamOptions options_;
  telemetry::RegistryDiff<StreamSnapshot> counts_;
  Status precheck_status_;              ///< strict analyze_first verdict
  bool finished_ = false;
  Pipeline pipeline_;                   ///< last: its workers use the above
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_STREAM_REPAIR_H_

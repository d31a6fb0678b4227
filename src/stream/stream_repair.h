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
/// Bounded memory: the per-shard rings hold kRingCapacity tuples each,
/// admission is gated by an in-flight window of `num_shards *
/// kRingCapacity` tuples (Push blocks — backpressure — until the merge
/// stage catches up), so the reorder buffer can never exceed the window;
/// and each shard memo, with its dictionary of values the master lacks,
/// clears past RepairMemo::kMaxEntries, so an unbounded stream of
/// distinct values cannot grow a shard forever.
///
/// Single-writer pool contract (value_pool.h): the master pool is shared
/// read-only and no repair step interns. Each pushed tuple's owned cell
/// vector moves through its shard, which maps it to master ids, writes
/// only the changed cells, and passes it on to the merge stage.
///
/// Threading contract for callers: Push/PushStrings may be called from
/// multiple producer threads, but Finish must not run concurrently with
/// any Push. Sinks are called serialized, in order (sink.h). The first
/// Finish() adds the engine's counters to the telemetry registry that is
/// Global() then.

#ifndef CERTFIX_STREAM_STREAM_REPAIR_H_
#define CERTFIX_STREAM_STREAM_REPAIR_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/shard_repair.h"
#include "stream/ordered_pipeline.h"
#include "stream/sink.h"
#include "util/status.h"

namespace certfix {

/// \brief Point-in-time copy of one engine's stream counters: the tally
/// of every emitted tuple plus the stream's own.
struct StreamSnapshot : RepairTally {
  uint64_t tuples_in = 0;       ///< tuples accepted by Push
  uint64_t tuples_out = 0;      ///< tuples emitted to the sink
  uint64_t backpressure_waits = 0;  ///< Push calls that blocked on a
                                    ///< full ring or in-flight window
  /// Always 0: shards hold no pools. Kept only because perfbench reads
  /// it; a benchmark PR removes it.
  uint64_t pool_recycles = 0;
  uint64_t max_reorder = 0;     ///< high-water mark of the merge buffer
};

/// \brief Execution knobs for the streaming engine.
struct StreamOptions {
  /// Shard-worker count. 0 = one per hardware thread. Capped at
  /// max(16, 2x hardware) (ResolveShards) — the cap never changes output,
  /// only routing.
  size_t num_shards = 1;
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
  /// this engine's counters; the first call also adds them to the
  /// registry. Rethrows the first worker exception, once. Idempotent
  /// otherwise; must not race with Push.
  StreamSnapshot Finish();

  size_t num_shards() const { return pipeline_.num_workers(); }
  const SchemaPtr& schema() const { return schema_; }

 private:
  using Pipeline = OrderedShardPipeline<std::vector<Value>, RepairedRow>;

  bool Submit(std::vector<Value> values);  ///< admit + route + enqueue
  /// The pipeline step: repairs one block with shard `ring`.
  void RepairShardBlock(size_t ring, std::vector<Pipeline::Ticket>& block,
                        const Pipeline::Emit& emit);
  void EmitRecord(uint64_t seq, RepairedRow& row);  ///< in-order apply

  SchemaPtr schema_;
  AttrSet trusted_;
  std::vector<AttrId> trusted_attrs_;   ///< routing key, ascending
  StreamSink* sink_;
  std::atomic<uint64_t> tuples_in_{0};  ///< producers may push concurrently
  /// Written by EmitRecord under the merge lock; the rest is filled in
  /// once the first Finish() has joined the workers.
  StreamSnapshot counts_;
  bool finished_ = false;
  std::vector<ShardRepairer> shards_;   ///< one per ring
  Pipeline pipeline_;                   ///< last: its workers use the above
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_STREAM_REPAIR_H_

/// \file batch_repair.h
/// \brief Certain fixes in data *repairing* rather than monitoring — the
/// first future-work topic of Sect. 7: "efficiently find certain fixes
/// for data in a database".
///
/// Given a relation whose tuples all have a trusted attribute set Z
/// (e.g. verified keys), BatchRepair applies every certain fix the rules
/// and master data entail, tuple by tuple, without user interaction.
/// The per-tuple step is RepairOneTuple (core/repair_tuple.h), shared
/// verbatim with the streaming point-of-entry engine (src/stream/).
/// Tuples whose (Sigma, Dm) analysis conflicts are left untouched and
/// reported; tuples not fully covered are partially repaired (every
/// applied fix is still certain relative to Z).
///
/// Threading model: repair is embarrassingly parallel across tuples —
/// each tuple's (Sigma, Dm) saturation is independent, and `Saturator`
/// and `MasterIndex` are safe for concurrent read-only use after
/// construction (see saturation.h / master_index.h). Repair runs on the
/// ordered shard pipeline the online engines run on
/// (stream/ordered_pipeline.h): rows are admitted in row order and dealt
/// round-robin to `RepairOptions::num_threads` shards, each repairing
/// blocks with its own ShardRepairer (core/shard_repair.h), and results
/// are applied strictly in row order. So the output — repaired relation,
/// every counter, and the order of `conflict_rows` — is value-identical
/// (byte-identical under WriteCsv) at any thread count. At one thread the
/// pipeline runs in zero-worker mode, on the calling thread.
///
/// Interning contract (see value_pool.h): all shards read the master
/// relation's immutable ValuePool and the input's rows in place, and map
/// each row to master ids without interning anything; a fix is a master
/// id. Changed cells are written into the output relation, which shares
/// the input's pool, on the calling thread once every row is repaired. No
/// pool is written while a shard runs.

#ifndef CERTFIX_CORE_BATCH_REPAIR_H_
#define CERTFIX_CORE_BATCH_REPAIR_H_

#include "core/repair_tuple.h"

namespace certfix {

/// \brief Execution knobs for BatchRepair.
struct RepairOptions {
  /// Shard count. 1 = repair on the calling thread; 0 = one shard per
  /// hardware thread. Capped at max(16, 2x hardware) (ResolveShards).
  size_t num_threads = 1;
};

/// \brief Outcome of repairing one relation: the repaired copy, and the
/// tally of every row.
struct BatchRepairResult : RepairTally {
  Relation repaired;
  /// Row positions with conflicts (left unmodified), ascending.
  std::vector<size_t> conflict_rows;
};

/// \brief Batch repair engine.
class BatchRepair {
 public:
  explicit BatchRepair(const Saturator& sat, RepairOptions options = {})
      : sat_(&sat), options_(options) {}

  /// Repairs a copy of `data`, trusting t[Z] of every tuple. Tuples that
  /// fail the unique-fix check are reported and left unchanged. `data`
  /// must be over the rules' R schema (the same object or a structurally
  /// equal one); otherwise throws std::invalid_argument before reading a
  /// row.
  BatchRepairResult Repair(const Relation& data, AttrSet trusted) const;

  const RepairOptions& options() const { return options_; }

 private:
  const Saturator* sat_;
  RepairOptions options_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_BATCH_REPAIR_H_

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
/// construction (see saturation.h / master_index.h). With
/// `RepairOptions::num_threads > 1` the input is split into contiguous
/// row-range shards, each shard is repaired by a pool worker
/// (util/thread_pool.h), and shard results are merged in row order, so
/// the output — repaired relation, every counter, and the order of
/// `conflict_rows` — is value-identical (byte-identical under WriteCsv)
/// to the sequential `num_threads == 1` path, which still runs the
/// original tuple-at-a-time loop.
///
/// Interning contract (see value_pool.h): all shards share the master
/// relation's immutable ValuePool read-only; each shard rebases its rows
/// into a shard-local pool, interns every value its saturations produce
/// locally, and the changed rows are merged back into the output
/// relation's pool on the calling thread, in shard order. No pool is ever
/// written concurrently.

#ifndef CERTFIX_CORE_BATCH_REPAIR_H_
#define CERTFIX_CORE_BATCH_REPAIR_H_

#include "analysis/analyze_mode.h"
#include "core/saturation.h"
#include "util/result.h"

namespace certfix {

/// \brief Execution knobs for BatchRepair.
struct RepairOptions {
  /// Worker count. 1 = the original sequential loop (the differential-
  /// testing reference); 0 = one worker per hardware thread.
  size_t num_threads = 1;
  /// Rows per shard. 0 = divide the input evenly over the workers.
  size_t chunk_size = 0;
  /// Ruleset analysis before repairing (RepairChecked only): off trusts
  /// (Sigma, Dm, Z) as-is, warn logs analyzer diagnostics, strict refuses
  /// inconsistent rulesets with the witness in the error (analyzer.h).
  AnalyzeMode analyze_first = AnalyzeMode::kOff;
};

/// \brief Outcome of repairing one relation.
struct BatchRepairResult {
  Relation repaired;
  size_t tuples_fully_covered = 0;  ///< certain fix reached (covered = R)
  size_t tuples_partial = 0;        ///< some but not all attrs covered
  size_t tuples_untouched = 0;      ///< nothing beyond Z derivable
  size_t tuples_conflicting = 0;    ///< unique-fix check failed
  size_t cells_changed = 0;
  size_t memo_hits = 0;    ///< repairs replayed from a shard memo
  size_t memo_misses = 0;  ///< repairs computed (and memoized)
  /// Row positions with conflicts (left unmodified), ascending.
  std::vector<size_t> conflict_rows;
};

/// \brief Batch repair engine.
class BatchRepair {
 public:
  explicit BatchRepair(const Saturator& sat, RepairOptions options = {})
      : sat_(&sat), options_(options) {}

  /// Repairs a copy of `data`, trusting t[Z] of every tuple. Tuples that
  /// fail the unique-fix check are reported and left unchanged.
  BatchRepairResult Repair(const Relation& data, AttrSet trusted) const;

  /// Repair behind the options' analyze_first gate: runs the ruleset
  /// analyzer first and, under strict, returns Inconsistent (witness in
  /// the message) instead of repairing when the ruleset has errors. With
  /// analyze_first = off this is exactly Repair.
  Result<BatchRepairResult> RepairChecked(const Relation& data,
                                          AttrSet trusted) const;

  const RepairOptions& options() const { return options_; }

 private:
  /// Per-shard tallies and changed rows; `conflict_rows` and the row
  /// positions in `changed` are absolute.
  struct ShardResult {
    size_t fully_covered = 0;
    size_t partial = 0;
    size_t untouched = 0;
    size_t conflicting = 0;
    size_t cells_changed = 0;
    size_t memo_hits = 0;
    size_t memo_misses = 0;
    std::vector<size_t> conflict_rows;
    /// Rows whose fix differs from the input, in row order.
    std::vector<std::pair<size_t, Tuple>> changed;
  };

  /// Repairs rows [begin, end) of `data` into `out`. With `local_pool`
  /// set, each row is rebased into it first so all interning stays
  /// shard-local; with it null (the sequential path) rows keep sharing
  /// `data`'s pool. The eager per-row rebase costs one hash per cell even
  /// for rows saturation never changes — the price of keeping pools
  /// strictly single-writer. Deferring it needs copy-on-write tuple
  /// pools (rebase on first applied move); candidate future optimization
  /// if profiles show clean-row rebasing dominating parallel repair.
  void RepairRange(const Relation& data, AttrSet trusted, AttrSet all,
                   size_t begin, size_t end, const PoolPtr& local_pool,
                   ShardResult* out) const;

  const Saturator* sat_;
  RepairOptions options_;
};

}  // namespace certfix

#endif  // CERTFIX_CORE_BATCH_REPAIR_H_

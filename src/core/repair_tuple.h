/// \file repair_tuple.h
/// \brief The per-tuple certain-fix entry point shared by the batch and
/// streaming repair engines.
///
/// BatchRepair (whole-relation, src/core/batch_repair.h) and
/// StreamRepairEngine (point-of-entry, src/stream/stream_repair.h) apply
/// exactly the same repair to one tuple: trust t[Z], run the exact
/// unique-fix check of Theorem 4 (Saturator::CheckUniqueFix), and either
/// adopt the (possibly partial) fix or leave the tuple untouched when the
/// rules and master data conflict. RepairOneTuple is that shared step,
/// factored out of batch_repair.cc so the two engines cannot drift — the
/// streaming differential tests rely on both calling this one function.
///
/// Thread safety: RepairOneTuple keeps all mutable state on the stack and
/// in the caller-owned `bridge`; it inherits the Saturator storage-layer
/// contract (saturation.h) — applying a move interns into the *input
/// tuple's* pool, so concurrent callers must hand in tuples backed by
/// caller-owned pools (a shard-local pool in both engines).

#ifndef CERTFIX_CORE_REPAIR_TUPLE_H_
#define CERTFIX_CORE_REPAIR_TUPLE_H_

#include <cstdint>
#include <string>

#include "core/saturation.h"

namespace certfix {

namespace telemetry {
class Registry;
}  // namespace telemetry

class RepairMemo;

/// How one tuple fared under repair: the four outcome classes of Sect. 3.
enum class FixClass {
  kFullyCovered,  ///< certain fix reached (covered = R)
  kPartial,       ///< some but not all attributes covered
  kUntouched,     ///< nothing beyond Z derivable
  kConflicting,   ///< unique-fix check failed; tuple left unchanged
};

/// \brief Per-tuple repair outcome record. Plain values only (no pool or
/// relation references), so reports can cross thread boundaries freely.
struct FixReport {
  FixClass kind = FixClass::kUntouched;
  size_t cells_changed = 0;  ///< attributes whose value differs from input
  AttrSet covered;           ///< Z plus every attribute the rules fixed

  bool conflicting() const { return kind == FixClass::kConflicting; }
};

/// \brief The counts every engine reports over the tuples it repaired:
/// one per FixClass, the changed cells, and the memo's hits and misses.
/// BatchRepairResult, StreamSnapshot and DeltaRepairStats derive from it.
struct RepairTally {
  uint64_t fully_covered = 0;  ///< certain fix reached (covered = R)
  uint64_t partial = 0;        ///< some but not all attrs covered
  uint64_t untouched = 0;      ///< nothing beyond Z derivable
  uint64_t conflicting = 0;    ///< unique-fix check failed
  uint64_t cells_changed = 0;  ///< attributes rewritten
  uint64_t memo_hits = 0;      ///< repairs replayed from a shard memo
  uint64_t memo_misses = 0;    ///< repairs computed (and memoized)

  /// One count: its registry name after the engine's prefix, its member.
  struct Field {
    const char* name;
    uint64_t RepairTally::*count;
  };
  /// The live populations: one per FixClass, plus the changed cells. The
  /// delta engine's re-repairs and deletes shrink them.
  static constexpr Field kPopulations[] = {
      {"fully_covered", &RepairTally::fully_covered},
      {"partial", &RepairTally::partial},
      {"untouched", &RepairTally::untouched},
      {"conflicting", &RepairTally::conflicting},
      {"cells_changed", &RepairTally::cells_changed},
  };
  /// The memo's activity, which only grows.
  static constexpr Field kMemoCounts[] = {
      {"memo_hits", &RepairTally::memo_hits},
      {"memo_misses", &RepairTally::memo_misses},
  };

  /// The count of tuples in class `kind`.
  uint64_t& ClassCount(FixClass kind);
  /// Counts one repair: its class, its changed cells and whether the
  /// memo replayed it.
  void Add(const FixReport& report, bool memo_hit);
  /// Adds each count to the registry counter `<prefix>.<field>`.
  void AddTo(telemetry::Registry& registry, const std::string& prefix) const;
};

/// Rows every engine stages per probe block before repairing any of them:
/// enough independent master-index probes in flight to cover DRAM
/// latency, few enough to stay within L1 and the prefetch queues.
constexpr size_t kProbeBlock = 32;

/// \brief One repaired tuple: the fixed row plus its report. On conflict
/// the input is left unchanged and `fixed` is an empty default Tuple —
/// callers use the row they already hold (the batch engine skips the row
/// entirely; the stream worker re-emits its input values).
struct TupleRepair {
  Tuple fixed;
  FixReport report;
  bool memo_hit = false;  ///< replayed from the memo, not recomputed
};

/// Repairs one tuple, trusting t[Z]: the unique-fix check plus the
/// classification every engine tallies. `all` is the schema's full attribute
/// set (hoisted by callers out of their per-tuple loop). `memo`
/// short-circuits the whole check for a previously seen relevant
/// projection (core/repair_memo.h): on a hit the recorded outcome is
/// replayed (`memo_hit` set) and the entry's probe hashes are appended to
/// `probes`; on a miss the fresh outcome is memoized. The memo must be
/// keyed on `row`'s pool (one memo per shard pool generation) and have
/// been built with the same `trusted` set. `bridge`, when given, must
/// translate `row`'s pool into the master pool and may be reused across
/// many rows of the same pool. `probes`, when given, records the repair's
/// master-index dependency set (fix_state.h) — the incremental engine
/// re-repairs a tuple only when a master delta hits one of its recorded
/// probes.
TupleRepair RepairOneTuple(const Saturator& sat, const Tuple& row,
                           AttrSet trusted, AttrSet all, RepairMemo& memo,
                           PoolBridge* bridge = nullptr,
                           ProbeLog* probes = nullptr);

}  // namespace certfix

#endif  // CERTFIX_CORE_REPAIR_TUPLE_H_

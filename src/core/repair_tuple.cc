#include "core/repair_tuple.h"

#include <utility>

#include "core/repair_memo.h"
#include "telemetry/metrics.h"

namespace certfix {

uint64_t& RepairTally::ClassCount(FixClass kind) {
  switch (kind) {
    case FixClass::kFullyCovered:
      return fully_covered;
    case FixClass::kPartial:
      return partial;
    case FixClass::kUntouched:
      return untouched;
    case FixClass::kConflicting:
      break;
  }
  return conflicting;
}

void RepairTally::Add(const FixReport& report, bool memo_hit) {
  ++ClassCount(report.kind);
  cells_changed += report.cells_changed;
  ++(memo_hit ? memo_hits : memo_misses);
}

void RepairTally::AddTo(telemetry::Registry& registry,
                        const std::string& prefix) const {
  auto add = [&](const auto& fields) {
    for (const auto& [name, count] : fields) {
      registry.GetCounter(prefix + "." + name)->Add(this->*count);
    }
  };
  add(kPopulations);
  add(kMemoCounts);
}

TupleRepair RepairOneTuple(const Saturator& sat, const Tuple& row,
                           AttrSet trusted, AttrSet all, RepairMemo& memo,
                           PoolBridge* bridge, ProbeLog* probes) {
  // Per-tuple latency across every engine, memo-hit path included.
  telemetry::ScopedLatency latency(CERTFIX_TL_HISTOGRAM("repair_tuple_ns"));
  if (const RepairMemo::Entry* entry = memo.Find(row)) {
    if (probes != nullptr) {
      probes->hashes.insert(probes->hashes.end(), entry->probes.begin(),
                            entry->probes.end());
    }
    return memo.Replay(*entry, row);
  }
  // A memoized repair must carry its probe set even when the caller
  // doesn't track probes, so invalidation by probe hash stays possible.
  ProbeLog local_probes;
  ProbeLog& plog = probes != nullptr ? *probes : local_probes;

  SaturationResult fix = sat.CheckUniqueFix(row, trusted, bridge, &plog);
  TupleRepair out;
  if (!fix.unique) {
    // No copy of the input here: a conflicting tuple is left unchanged,
    // and every caller still holds `row`.
    out.report.kind = FixClass::kConflicting;
    out.report.covered = trusted;
    memo.Insert(row, out, plog);
    return out;
  }
  out.report.cells_changed = row.DiffCount(fix.fixed);
  out.report.covered = fix.covered;
  if (fix.covered == all) {
    out.report.kind = FixClass::kFullyCovered;
  } else if (fix.covered != trusted) {
    out.report.kind = FixClass::kPartial;
  } else {
    out.report.kind = FixClass::kUntouched;
  }
  out.fixed = std::move(fix.fixed);
  memo.Insert(row, out, plog);
  return out;
}

}  // namespace certfix

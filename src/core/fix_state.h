/// \file fix_state.h
/// \brief One fix step (the t ->((Z,Tc),phi,tm) t' relation of Sect. 3) as
/// the engines record it, and the probe hashes they log it by. The
/// single-step state machine is a test oracle: tests/reference/fix_state.h.

#ifndef CERTFIX_CORE_FIX_STATE_H_
#define CERTFIX_CORE_FIX_STATE_H_

#include <cstdint>
#include <vector>

#include "core/master_index.h"

namespace certfix {

/// \brief One justified rule application: rule `rule_idx` with master tuple
/// `master_idx` sets attribute `attr` to `value`.
struct FixMove {
  size_t rule_idx = 0;
  size_t master_idx = 0;
  AttrId attr = 0;
  Value value;
};

/// \brief Dependency record of one repair: every master-index probe the
/// saturation performed, as (rule, key-values) hashes.
///
/// A repair is a deterministic function of the input tuple, Z0, Sigma, and
/// the answers to the RhsValues probes it issues; if none of a tuple's
/// recorded probes has a changed answer after a master-data delta, replaying
/// the repair takes the identical path and produces the identical fix. The
/// incremental engine (src/incremental/) therefore re-repairs exactly the
/// tuples holding an affected probe hash. Hash collisions only ever
/// over-invalidate (an extra re-repair), never under-invalidate.
struct ProbeLog {
  std::vector<uint64_t> hashes;

  void Add(uint64_t h) { hashes.push_back(h); }
  void Clear() { hashes.clear(); }
};

/// Hash of one probe: rule `rule_idx` keyed by row[attrs] (input side,
/// `attrs` = lhs(phi)). Must stay consistent with MasterProbeKeyHash —
/// equal value lists under the same rule produce equal hashes, which is
/// what ties a recorded input-side probe to a master-side row projection.
uint64_t ProbeKeyHash(size_t rule_idx, const IdRow& row,
                      const std::vector<AttrId>& attrs);

/// Hash of the probe key a master row answers for rule `rule_idx`:
/// dm[row][attrs] with `attrs` = lhsm(phi). |lhs| == |lhsm| and the
/// correspondence is positional, so a master row matches a recorded probe
/// iff the value lists are equal — iff the hashes are equal (modulo
/// collisions, which are sound).
uint64_t MasterProbeKeyHash(size_t rule_idx, const Relation& dm, size_t row,
                            const std::vector<AttrId>& attrs);

}  // namespace certfix

#endif  // CERTFIX_CORE_FIX_STATE_H_

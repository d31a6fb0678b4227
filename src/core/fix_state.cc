#include "core/fix_state.h"

namespace certfix {

namespace {

// FNV-1a over the rule index and the projected cell hashes. The input and
// master sides feed equal value lists for matching probes, so both hash
// functions below must combine identically.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x;
  h *= kFnvPrime;
  return h;
}

}  // namespace

uint64_t ProbeKeyHash(size_t rule_idx, const Tuple& t,
                      const std::vector<AttrId>& attrs) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(rule_idx));
  for (AttrId a : attrs) h = Mix(h, t.at(a).Hash());
  return h;
}

uint64_t MasterProbeKeyHash(size_t rule_idx, const Relation& dm, size_t row,
                            const std::vector<AttrId>& attrs) {
  uint64_t h = Mix(kFnvOffset, static_cast<uint64_t>(rule_idx));
  for (AttrId a : attrs) h = Mix(h, dm.Cell(row, a).Hash());
  return h;
}

}  // namespace certfix

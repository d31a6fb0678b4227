/// \file value_pool.h
/// \brief Interned-value dictionary: every distinct Value maps to a dense
/// ValueId, so the hot layers (master-index probes, saturation premise
/// checks, certain-region row validation) compare integers instead of
/// heap-allocated strings.
///
/// Layering: each Relation owns one ValuePool shared by all its rows (and,
/// via shared_ptr, by tuples materialized from it and by relations copied
/// from it). Two values drawn from the same pool are equal iff their ids
/// are equal; values from different pools are compared by content, or
/// translated id-to-id through a PoolBridge.
///
/// Threading contract (see docs/ARCHITECTURE.md "Storage layer"): a pool
/// is NOT internally synchronized for writes. No repair step interns: the
/// shards map their rows read-only (Find) into the master pool, which
/// only the delta engine's caller thread appends to, between drains. Any
/// number of concurrent readers (value / Find / size) are safe as long as
/// no thread interns; interned values live in a deque, so references
/// returned by value() are stable for the lifetime of the pool even
/// across later interning.

#ifndef CERTFIX_RELATIONAL_VALUE_POOL_H_
#define CERTFIX_RELATIONAL_VALUE_POOL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "relational/value.h"
#include "util/status.h"

namespace certfix {

/// Dense handle of an interned value within one ValuePool.
using ValueId = uint32_t;

/// Id of the null value; every pool reserves slot 0 for it.
inline constexpr ValueId kNullValueId = 0;
/// Returned by lookups when a value is absent from the pool.
inline constexpr ValueId kInvalidValueId = static_cast<ValueId>(-1);

/// \brief Append-only dictionary Value <-> ValueId.
class ValuePool {
 public:
  ValuePool() { values_.emplace_back(); }  // slot 0 = null

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Id of `v`, interning it if new. Null always maps to kNullValueId.
  ValueId Intern(const Value& v) {
    if (v.is_null()) return kNullValueId;
    size_t h = v.Hash();
    auto range = map_.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (values_[it->second] == v) return it->second;
    }
    ValueId id = static_cast<ValueId>(values_.size());
    values_.push_back(v);
    map_.emplace(h, id);
    return id;
  }

  /// Id of `v` if present, kInvalidValueId otherwise. Never interns, so it
  /// is safe on pools being read concurrently.
  ValueId Find(const Value& v) const {
    if (v.is_null()) return kNullValueId;
    auto range = map_.equal_range(v.Hash());
    for (auto it = range.first; it != range.second; ++it) {
      if (values_[it->second] == v) return it->second;
    }
    return kInvalidValueId;
  }

  /// The value behind `id`. The reference is stable for the pool's
  /// lifetime (values live in a deque and are never erased).
  const Value& value(ValueId id) const { return values_[id]; }

  /// Number of ids in use (the null slot included).
  size_t size() const { return values_.size(); }

 private:
  std::deque<Value> values_;
  // Each value is stored exactly once (in values_); the lookup structure
  // maps value hashes to ids and compares through the deque, so the
  // dictionary does not keep a second copy of every string. Same-hash
  // collisions are a short per-hash chain.
  std::unordered_multimap<size_t, ValueId> map_;
};

using PoolPtr = std::shared_ptr<ValuePool>;

/// \brief Serialization hook: rebuilds a pool's dictionary in dense id
/// order when a columnar snapshot is loaded (storage/columnar.cc decodes
/// the values; this appends them). Lives here — not in the storage layer —
/// because pool writes are confined to src/relational (the single-writer
/// contract above), and because id assignment is the invariant mapped
/// columns depend on: the snapshot stores raw ids, so value k of the
/// dictionary section MUST intern to id k.
class PoolDictionaryBuilder {
 public:
  explicit PoolDictionaryBuilder(PoolPtr pool) : pool_(std::move(pool)) {}

  /// Appends the next dictionary value; fails if it does not land on
  /// `expected` (a duplicate or out-of-order entry — a corrupt or
  /// hand-edited dictionary section).
  Status Append(const Value& v, ValueId expected) {
    ValueId got = pool_->Intern(v);
    if (got != expected) {
      return Status::ParseError(
          "dictionary entry " + std::to_string(expected) +
          " interned to id " + std::to_string(got) +
          " (duplicate or out-of-order value)");
    }
    return Status::OK();
  }

 private:
  PoolPtr pool_;
};

/// Key type used by id-keyed hash indexes (FlatIdTable and its users).
using IdKey = std::vector<ValueId>;

struct IdKeyHash {
  size_t operator()(const IdKey& key) const {
    // FNV-1a over the id words.
    size_t h = 1469598103934665603ULL;
    for (ValueId id : key) {
      h ^= id;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// \brief Memoized id translation from one pool into another.
///
/// Probe loops over one tuple (TransFix, FlatKeyIndex::LookupTuple)
/// translate the same handful of ids over and over; the bridge hashes each
/// distinct source value at most once and answers repeats with an array
/// lookup. When both ends are the same pool the translation is the
/// identity. Not internally synchronized — use one bridge per thread.
class PoolBridge {
 public:
  PoolBridge(const ValuePool* from, const ValuePool* to)
      : from_(from), to_(to) {}

  /// True if this bridge translates `from` ids into `to` ids.
  bool Covers(const ValuePool* from, const ValuePool* to) const {
    return from_ == from && to_ == to;
  }

  /// The `to`-pool id of `from`-pool value `from_id`, kInvalidValueId if
  /// the target pool does not contain the value.
  ValueId Translate(ValueId from_id) {
    if (from_ == to_) return from_id;
    if (from_id == kNullValueId) return kNullValueId;
    if (from_id >= cache_.size()) cache_.resize(from_->size(), kUnresolved);
    ValueId& slot = cache_[from_id];
    if (slot == kUnresolved) slot = to_->Find(from_->value(from_id));
    return slot;
  }

 private:
  static constexpr ValueId kUnresolved = static_cast<ValueId>(-2);
  const ValuePool* from_;
  const ValuePool* to_;
  std::vector<ValueId> cache_;
};

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_VALUE_POOL_H_

/// \file key_index.h
/// \brief Reference hash index for the differential tests: the node-based
/// std::unordered_map index that FlatKeyIndex (relational/flat_key_index.h)
/// must agree with row for row.
///
/// Deliberately the plainest possible implementation — one
/// std::vector<size_t> of row positions per IdKey, filled in ascending row
/// order — so that a disagreement points at the flat table, not at the
/// oracle. Header-only: tests/CMakeLists.txt builds only *_test.cc.

#ifndef CERTFIX_TESTS_REFERENCE_KEY_INDEX_H_
#define CERTFIX_TESTS_REFERENCE_KEY_INDEX_H_

#include <unordered_map>
#include <vector>

#include "relational/relation.h"

namespace certfix {
namespace reference {

/// \brief Index mapping projections on `attrs` to row positions.
///
/// Keys are IdKeys in the indexed relation's pool space. Probes from
/// another pool translate value by value, through a PoolBridge when given,
/// else via ValuePool::Find; a value absent from the indexed pool answers
/// "no rows".
class KeyIndex {
 public:
  KeyIndex() = default;
  /// Builds the index over `rel` keyed by the projection on `attrs`.
  KeyIndex(const Relation& rel, std::vector<AttrId> attrs)
      : attrs_(std::move(attrs)), pool_(rel.pool()) {
    IdKey key(attrs_.size());
    for (size_t i = 0; i < rel.size(); ++i) {
      for (size_t k = 0; k < attrs_.size(); ++k) {
        key[k] = rel.Column(attrs_[k])[i];
      }
      map_[key].push_back(i);
    }
  }

  /// Row positions whose projection equals `values` (list order matters).
  const std::vector<size_t>& Lookup(const std::vector<Value>& values) const {
    if (pool_ == nullptr) return Empty();  // default-constructed index
    IdKey key(values.size());
    for (size_t k = 0; k < values.size(); ++k) {
      ValueId id = pool_->Find(values[k]);
      if (id == kInvalidValueId) return Empty();
      key[k] = id;
    }
    return Find(key);
  }

  /// Row positions matching the projection of `t` (a tuple over another
  /// schema) on `probe_attrs`; |probe_attrs| must equal the key arity.
  /// `bridge`, when given, must translate t's pool into the indexed pool.
  const std::vector<size_t>& LookupTuple(const Tuple& t,
                                         const std::vector<AttrId>& probe_attrs,
                                         PoolBridge* bridge = nullptr) const {
    if (pool_ == nullptr) return Empty();
    IdKey key;
    if (!ProjectIds(t, probe_attrs, pool_.get(), bridge, &key)) {
      return Empty();
    }
    return Find(key);
  }

  const std::vector<AttrId>& key_attrs() const { return attrs_; }
  size_t num_keys() const { return map_.size(); }
  /// The pool the keys are interned in (the indexed relation's pool).
  const PoolPtr& pool() const { return pool_; }

 private:
  static const std::vector<size_t>& Empty() {
    static const std::vector<size_t> kEmpty;
    return kEmpty;
  }

  const std::vector<size_t>& Find(const IdKey& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? Empty() : it->second;
  }

  std::vector<AttrId> attrs_;
  PoolPtr pool_;
  std::unordered_map<IdKey, std::vector<size_t>, IdKeyHash> map_;
};

}  // namespace reference
}  // namespace certfix

#endif  // CERTFIX_TESTS_REFERENCE_KEY_INDEX_H_

/// \file tuple.h
/// \brief A tuple of interned values bound to a schema.

#ifndef CERTFIX_RELATIONAL_TUPLE_H_
#define CERTFIX_RELATIONAL_TUPLE_H_

#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/value.h"
#include "relational/value_pool.h"
#include "util/result.h"

namespace certfix {

/// \brief One row of a relation, stored as ValueIds into a ValuePool.
///
/// Tuples are value-semantic; copying a tuple copies its cell ids (the
/// schema and the pool are shared). Cells are addressed by AttrId. The
/// string-facing accessors (at / Set / Project / ToString) are a thin
/// compatibility shim over the interned representation: at() resolves an
/// id through the pool, Set() interns. Rows materialized from a Relation
/// share that relation's pool, so copying them around moves 4-byte ids,
/// not strings; standalone tuples (FromStrings, the value-list
/// constructor) intern into a private pool created on first use.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(SchemaPtr schema)
      : schema_(std::move(schema)), ids_(schema_->num_attrs(), kNullValueId) {}
  Tuple(SchemaPtr schema, std::vector<Value> values);
  /// An all-null tuple whose future cells intern into `pool`.
  Tuple(SchemaPtr schema, PoolPtr pool)
      : schema_(std::move(schema)),
        pool_(std::move(pool)),
        ids_(schema_->num_attrs(), kNullValueId) {}
  /// Adopts pre-interned ids (the fast path used by Relation row views).
  Tuple(SchemaPtr schema, PoolPtr pool, std::vector<ValueId> ids)
      : schema_(std::move(schema)),
        pool_(std::move(pool)),
        ids_(std::move(ids)) {}

  /// Builds a tuple from string renderings, parsed per attribute type.
  static Result<Tuple> FromStrings(SchemaPtr schema,
                                   const std::vector<std::string>& fields);

  const SchemaPtr& schema() const { return schema_; }
  const PoolPtr& pool() const { return pool_; }
  size_t size() const { return ids_.size(); }

  /// The value of one cell. The reference points into the pool and stays
  /// valid for the pool's lifetime (even across later Set calls).
  const Value& at(AttrId id) const;
  const Value& operator[](AttrId id) const { return at(id); }

  /// The interned id of one cell (pool-local; kNullValueId for null).
  ValueId id_at(AttrId id) const { return ids_[id]; }

  /// Sets one cell, interning the value. Lvalue-qualified so that calls on
  /// temporaries (e.g. rel.at(i).Set(...), which would silently mutate a
  /// discarded row view) fail to compile — use Relation::SetCell instead.
  void Set(AttrId id, Value v) &;

  /// Projection t[X] in list order.
  std::vector<Value> Project(const std::vector<AttrId>& attrs) const;

  /// True if t[X] agrees with other[Y] position-wise (|X| must equal |Y|).
  bool AgreesOn(const std::vector<AttrId>& x, const Tuple& other,
                const std::vector<AttrId>& y) const;

  /// Number of attributes whose values differ (schemas assumed compatible).
  size_t DiffCount(const Tuple& other) const;
  /// Attribute ids where values differ.
  std::vector<AttrId> DiffAttrs(const Tuple& other) const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  /// "(v1, v2, ...)" rendering.
  std::string ToString() const;

 private:
  void EnsurePool();

  SchemaPtr schema_;
  PoolPtr pool_;
  std::vector<ValueId> ids_;
};

/// The schema check of every entry point that reads a caller's tuple by
/// `schema`'s attribute ids: OK when `t` was built on `schema` (the same
/// object or a structurally equal one), InvalidArgument otherwise.
Status CheckTupleSchema(const Tuple& t, const SchemaPtr& schema);

/// Unit separator delimiting fields of the string key forms below.
inline constexpr char kKeyUnitSep = '\x1f';

/// Serializes a projection into a flat hashable key ("v1\x1fv2...").
/// Hash-map friendly; values render unambiguously because the unit
/// separator cannot appear in parsed CSV fields. (The engine's own indexes
/// key on IdKey instead; this string form remains for CFD grouping and
/// diagnostics.)
std::string ProjectKey(const Tuple& t, const std::vector<AttrId>& attrs);

/// Projects t[attrs] into `target`-pool ids via Find (or `bridge` when it
/// covers the pools involved). Returns false — "no row can match" — when
/// some projected value is absent from the target pool.
bool ProjectIds(const Tuple& t, const std::vector<AttrId>& attrs,
                const ValuePool* target, PoolBridge* bridge, IdKey* out);

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_TUPLE_H_

/// \file relation.h
/// \brief In-memory relation: a schema plus dictionary-encoded columns.

#ifndef CERTFIX_RELATIONAL_RELATION_H_
#define CERTFIX_RELATIONAL_RELATION_H_

#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "relational/tuple.h"
#include "util/result.h"

namespace certfix {

/// One attribute's id column: the row-ordered ValueIds of its cells.
using IdColumn = std::vector<ValueId>;

/// \brief A bag of tuples over one schema. Master relations Dm and input
/// batches D are both Relation instances.
///
/// Storage is columnar: one vector of ValueIds per attribute, all ids
/// interned in the relation's ValuePool. Row access (at / iteration)
/// materializes a Tuple view that shares the pool — copying such a view
/// copies 4-byte ids, never strings. Copying a Relation copies the column
/// vectors and shares the pool (pools are append-only dictionaries, so
/// sharing is safe; see value_pool.h for the threading contract).
class Relation {
 public:
  Relation() = default;
  explicit Relation(SchemaPtr schema)
      : Relation(std::move(schema), std::make_shared<ValuePool>()) {}
  /// A relation interning into an existing (shared) pool.
  Relation(SchemaPtr schema, PoolPtr pool)
      : schema_(std::move(schema)),
        pool_(std::move(pool)),
        cols_(schema_->num_attrs()) {}
  /// Adopts pre-built columns (the snapshot loader's entry point: ids
  /// must be valid in `pool`). All columns must have exactly `num_rows`
  /// ids.
  Relation(SchemaPtr schema, PoolPtr pool, std::vector<IdColumn> cols,
           size_t num_rows)
      : schema_(std::move(schema)),
        pool_(std::move(pool)),
        cols_(std::move(cols)),
        num_rows_(num_rows) {}

  const SchemaPtr& schema() const { return schema_; }
  const PoolPtr& pool() const { return pool_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Materializes row `i` as a Tuple sharing this relation's pool.
  Tuple at(size_t i) const;

  /// One cell, resolved through the pool. The reference is stable for the
  /// pool's lifetime.
  const Value& Cell(size_t row, AttrId attr) const {
    return pool_->value(cols_[attr][row]);
  }
  /// One cell's interned id (pool-local).
  ValueId CellId(size_t row, AttrId attr) const { return cols_[attr][row]; }

  /// Overwrites one cell, interning the value.
  void SetCell(size_t row, AttrId attr, Value v);

  /// Overwrites row `row` with `t`'s cells. Same-pool tuples copy ids;
  /// cross-pool tuples re-intern only the cells that actually differ.
  void SetRow(size_t row, const Tuple& t);

  /// Cell-level dirty tracking: overwrites row `row` with `t`'s cells and
  /// returns the set of attributes whose value actually changed. Unchanged
  /// cells keep their interned ids untouched (columns are reused), so an
  /// upsert that repeats the current row is a guaranteed no-op — the
  /// incremental engine skips re-repair on an empty mask.
  AttrSet UpdateRow(size_t row, const Tuple& t);

  /// Removes row `row`; later rows move up one position. The pool keeps
  /// the row's values (pools are append-only), so every id stays valid.
  void EraseRow(size_t row);

  /// Appends a tuple; fails if the tuple's schema differs.
  Status Append(const Tuple& t);
  /// Appends parsing from strings (interns directly, no temporary tuple).
  Status AppendStrings(const std::vector<std::string>& fields);

  /// An all-null tuple bound to this relation's schema and pool (so that
  /// bulk loaders intern straight into the relation's dictionary).
  Tuple NewTuple() const { return Tuple(schema_, pool_); }

  void Reserve(size_t n) {
    for (auto& col : cols_) col.reserve(n);
  }

  /// The id column of one attribute (index builders scan this directly).
  const IdColumn& Column(AttrId attr) const { return cols_[attr]; }

  /// Distinct values of one attribute (the attribute's active domain),
  /// ascending. Deduplication is by id, one comparison word per row.
  std::vector<Value> DistinctValues(AttrId attr) const;

  /// All constants appearing anywhere in the relation, ascending.
  std::vector<Value> ActiveDomain() const;

  /// First `n` rows rendered as a table (for examples and debugging).
  std::string ToString(size_t max_rows = 10) const;

  /// Input iterator over materialized row views.
  class RowIterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = Tuple;

    RowIterator(const Relation* rel, size_t i) : rel_(rel), i_(i) {}
    Tuple operator*() const { return rel_->at(i_); }
    RowIterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const RowIterator& o) const { return i_ == o.i_; }
    bool operator!=(const RowIterator& o) const { return i_ != o.i_; }

   private:
    const Relation* rel_;
    size_t i_;
  };

  RowIterator begin() const { return RowIterator(this, 0); }
  RowIterator end() const { return RowIterator(this, num_rows_); }

 private:
  SchemaPtr schema_;
  PoolPtr pool_;
  std::vector<IdColumn> cols_;  // cols_[attr][row]
  size_t num_rows_ = 0;
};

/// ProjectKey over a stored row without materializing a Tuple (same key
/// format as ProjectKey(const Tuple&, ...) in tuple.h).
std::string ProjectKey(const Relation& rel, size_t row,
                       const std::vector<AttrId>& attrs);

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_RELATION_H_

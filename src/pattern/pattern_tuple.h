/// \file pattern_tuple.h
/// \brief Pattern tuple tp[Xp] over a subset of a schema's attributes.

#ifndef CERTFIX_PATTERN_PATTERN_TUPLE_H_
#define CERTFIX_PATTERN_PATTERN_TUPLE_H_

#include <map>
#include <string>
#include <vector>

#include "pattern/pattern_value.h"
#include "relational/attr_set.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace certfix {

/// \brief A pattern tuple over attributes Xp of a schema (Sect. 2).
///
/// Attributes outside Xp are unconstrained; inside Xp each cell is `_`,
/// `a`, or `ā`. A tuple t matches (t ≈ tp) iff every cell's condition
/// holds. Region tableaux and rule patterns share this class.
class PatternTuple {
 public:
  PatternTuple() = default;
  explicit PatternTuple(SchemaPtr schema) : schema_(std::move(schema)) {}

  /// Sets the pattern cell for one attribute (replacing any previous cell).
  void Set(AttrId attr, PatternValue pv);
  /// Convenience setters.
  void SetConst(AttrId attr, Value v) { Set(attr, PatternValue::Const(std::move(v))); }
  void SetNeg(AttrId attr, Value v) { Set(attr, PatternValue::NegConst(std::move(v))); }
  void SetWildcard(AttrId attr) { Set(attr, PatternValue::Wildcard()); }
  void Erase(AttrId attr);

  const SchemaPtr& schema() const { return schema_; }
  /// Attribute set Xp this pattern constrains (wildcards included).
  AttrSet attrs() const { return attrs_; }
  bool Has(AttrId attr) const { return attrs_.Contains(attr); }
  /// Cell for `attr`; wildcard if the attribute is outside Xp.
  PatternValue Get(AttrId attr) const;
  bool empty() const { return cells_.empty(); }
  size_t size() const { return cells_.size(); }

  /// Matching t[Xp] ≈ tp[Xp]. `t` is a Tuple or any row that reads a
  /// cell's Value with at(AttrId) (the engines' IdRow, master_index.h).
  template <typename Row>
  bool Matches(const Row& t) const {
    for (const auto& [attr, pv] : cells_) {
      if (!pv.Matches(t.at(attr))) return false;
    }
    return true;
  }
  /// Matching restricted to attributes in `subset` (used when only part of
  /// a tuple is validated).
  bool MatchesOn(const Tuple& t, const AttrSet& subset) const;

  /// Normal form: drop wildcard cells (Sect. 2, Notations (3)). Equivalent
  /// matching semantics.
  PatternTuple Normalized() const;

  /// True if no cell is a negated constant.
  bool IsPositive() const;
  /// True if every cell is a plain constant (no `_`, no `ā`).
  bool IsConcrete() const;

  /// Merges another pattern over the same schema; fails (returns false) if
  /// cells conflict (e.g. const a vs const b, or const a vs neg a).
  bool MergeFrom(const PatternTuple& other);

  bool operator==(const PatternTuple& o) const { return cells_ == o.cells_; }
  bool operator!=(const PatternTuple& o) const { return !(*this == o); }

  /// "[AC=0800, type!=2, city=_]" rendering.
  std::string ToString() const;

  /// Iteration over constrained cells in attribute order.
  const std::map<AttrId, PatternValue>& cells() const { return cells_; }

 private:
  SchemaPtr schema_;
  AttrSet attrs_;
  std::map<AttrId, PatternValue> cells_;
};

}  // namespace certfix

#endif  // CERTFIX_PATTERN_PATTERN_TUPLE_H_

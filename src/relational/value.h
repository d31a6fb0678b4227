/// \file value.h
/// \brief Dynamically typed cell value: null, int64, double, or string.

#ifndef CERTFIX_RELATIONAL_VALUE_H_
#define CERTFIX_RELATIONAL_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "relational/data_type.h"

namespace certfix {

/// \brief A single attribute value.
///
/// Null represents a missing cell (e.g. t2[str, zip] in Fig. 1a of the
/// paper). Equality is by type and content; null equals only null. The
/// doubles -0.0 and 0.0 are two values (they render as "-0" and "0"), so
/// no pool collapses one into the other; NaN equals nothing. Ordering is
/// defined for use in sorted containers: null < int < double < string,
/// then by content, with -0.0 before 0.0.
class Value {
 public:
  /// Constructs a null value.
  Value() : rep_(Null{}) {}
  /// Constructs an integer value.
  static Value Int(int64_t v) { return Value(Rep(v)); }
  /// Constructs a double value.
  static Value Double(double v) { return Value(Rep(v)); }
  /// Constructs a string value.
  static Value Str(std::string v) { return Value(Rep(std::move(v))); }

  bool is_null() const { return std::holds_alternative<Null>(rep_); }
  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_double() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return std::get<std::string>(rep_); }

  bool operator==(const Value& other) const {
    return rep_ == other.rep_ &&
           (!is_double() || std::signbit(as_double()) ==
                                std::signbit(other.as_double()));
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;

  /// Renders the value; null renders as "<null>".
  std::string ToString() const;

  /// Parses `text` as the given type. Empty text (or "<null>") yields null.
  static Value Parse(const std::string& text, DataType type);

  /// Hash compatible with operator== (the two zeros share one).
  size_t Hash() const;

 private:
  struct Null {
    bool operator==(const Null&) const { return true; }
  };
  using Rep = std::variant<Null, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}
  Rep rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_VALUE_H_

#include "relational/value.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

namespace certfix {

bool Value::operator<(const Value& other) const {
  if (rep_.index() != other.rep_.index()) {
    return rep_.index() < other.rep_.index();
  }
  if (is_int()) return as_int() < other.as_int();
  if (is_double()) {
    const double a = as_double(), b = other.as_double();
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  }
  if (is_string()) return as_string() < other.as_string();
  return false;  // both null
}

std::string Value::ToString() const {
  if (is_null()) return "<null>";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    // Shortest representation that parses back to the exact same double
    // (Parse(ToString(v)) == v — snapshots and golden files depend on
    // it). 17 significant digits always round-trip; most values need 15.
    char buf[64];
    double d = as_double();
    for (int precision = 15; precision <= 17; ++precision) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
      if (std::strtod(buf, nullptr) == d) break;
    }
    return buf;
  }
  return as_string();
}

Value Value::Parse(const std::string& text, DataType type) {
  if (text.empty() || text == "<null>") return Value();
  switch (type) {
    case DataType::kInt:
      if (IsInteger(text)) {
        errno = 0;
        int64_t v = std::strtoll(text.c_str(), nullptr, 10);
        // Out-of-range digit strings would otherwise clamp to
        // LLONG_MAX/MIN and enter the pool as wrong-but-plausible data.
        if (errno == ERANGE) return Value();
        return Value::Int(v);
      }
      return Value();
    case DataType::kDouble:
      if (IsDouble(text)) {
        errno = 0;
        double v = std::strtod(text.c_str(), nullptr);
        // Reject overflow (±HUGE_VAL); keep gradual underflow — a
        // subnormal result is still the nearest representable value.
        if (errno == ERANGE && std::abs(v) == HUGE_VAL) return Value();
        return Value::Double(v);
      }
      return Value();
    case DataType::kString:
      return Value::Str(text);
  }
  return Value();
}

size_t Value::Hash() const {
  size_t seed = rep_.index() * 0x9e3779b97f4a7c15ULL;
  size_t h = 0;
  if (is_int()) {
    h = std::hash<int64_t>()(as_int());
  } else if (is_double()) {
    h = std::hash<double>()(as_double());
  } else if (is_string()) {
    h = std::hash<std::string>()(as_string());
  }
  return seed ^ (h + 0x9e3779b9 + (seed << 6) + (seed >> 2));
}

}  // namespace certfix

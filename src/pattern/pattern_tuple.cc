#include "pattern/pattern_tuple.h"

namespace certfix {

void PatternTuple::Set(AttrId attr, PatternValue pv) {
  attrs_.Add(attr);
  cells_[attr] = std::move(pv);
}

void PatternTuple::Erase(AttrId attr) {
  attrs_.Remove(attr);
  cells_.erase(attr);
}

PatternValue PatternTuple::Get(AttrId attr) const {
  auto it = cells_.find(attr);
  if (it == cells_.end()) return PatternValue::Wildcard();
  return it->second;
}

bool PatternTuple::MatchesOn(const Tuple& t, const AttrSet& subset) const {
  for (const auto& [attr, pv] : cells_) {
    if (!subset.Contains(attr)) continue;
    if (!pv.Matches(t.at(attr))) return false;
  }
  return true;
}

PatternTuple PatternTuple::Normalized() const {
  PatternTuple out(schema_);
  for (const auto& [attr, pv] : cells_) {
    if (!pv.is_wildcard()) out.Set(attr, pv);
  }
  return out;
}

bool PatternTuple::IsPositive() const {
  for (const auto& [attr, pv] : cells_) {
    (void)attr;
    if (pv.is_neg_const()) return false;
  }
  return true;
}

bool PatternTuple::IsConcrete() const {
  for (const auto& [attr, pv] : cells_) {
    (void)attr;
    if (!pv.is_const()) return false;
  }
  return true;
}

bool PatternTuple::MergeFrom(const PatternTuple& other) {
  for (const auto& [attr, pv] : other.cells_) {
    auto it = cells_.find(attr);
    if (it == cells_.end() || it->second.is_wildcard()) {
      Set(attr, pv);
      continue;
    }
    const PatternValue& mine = it->second;
    if (pv.is_wildcard() || pv == mine) continue;
    if (mine.is_const() && pv.is_const()) return false;  // a vs b
    if (mine.is_const() && pv.is_neg_const()) {
      if (mine.value() == pv.value()) return false;  // a vs !a
      continue;  // a already implies !b for b != a
    }
    if (mine.is_neg_const() && pv.is_const()) {
      if (mine.value() == pv.value()) return false;
      Set(attr, pv);  // constant is strictly stronger
      continue;
    }
    // !a vs !b with a != b: representable only approximately; keep the
    // existing cell. Regions built by this library never produce this case
    // (at most one negation per attribute), so reject to stay sound.
    return false;
  }
  return true;
}

std::string PatternTuple::ToString() const {
  std::string out = "[";
  bool first = true;
  for (const auto& [attr, pv] : cells_) {
    if (!first) out += ", ";
    first = false;
    out += schema_ ? schema_->attr_name(attr) : std::to_string(attr);
    if (pv.is_neg_const()) {
      out += "!=" + pv.value().ToString();
    } else {
      out += "=" + pv.ToString();
    }
  }
  out += "]";
  return out;
}

}  // namespace certfix

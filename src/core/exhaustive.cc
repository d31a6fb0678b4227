#include "core/exhaustive.h"

namespace certfix {

std::set<Value> ActiveDomain(const RuleSet& rules, const Relation& dm) {
  std::set<Value> dom;
  // Columnar scan: each distinct id is resolved to its value once.
  for (const Value& v : dm.ActiveDomain()) dom.insert(v);
  for (const Value& v : rules.PatternConstants()) dom.insert(v);
  return dom;
}

Value FreshValue(DataType type, size_t ordinal, const std::set<Value>& dom) {
  switch (type) {
    case DataType::kInt: {
      int64_t v = 1000000007 + static_cast<int64_t>(ordinal);
      while (dom.count(Value::Int(v)) > 0) ++v;
      return Value::Int(v);
    }
    case DataType::kDouble: {
      double v = 1e15 + static_cast<double>(ordinal);
      while (dom.count(Value::Double(v)) > 0) v += 1.0;
      return Value::Double(v);
    }
    case DataType::kString: {
      size_t n = ordinal;
      while (true) {
        Value v = Value::Str("<fresh#" + std::to_string(n) + ">");
        if (dom.count(v) == 0) return v;
        ++n;
      }
    }
  }
  return Value();
}

Result<std::vector<Tuple>> InstantiateRow(const RuleSet& rules,
                                          const Relation& dm,
                                          const std::vector<AttrId>& z,
                                          const PatternTuple& row,
                                          size_t max_instances,
                                          const std::set<Value>* dom_hint) {
  const SchemaPtr& schema = rules.r_schema();
  std::set<Value> dom_local;
  if (dom_hint == nullptr) {
    dom_local = ActiveDomain(rules, dm);
  }
  const std::set<Value>& dom = dom_hint != nullptr ? *dom_hint : dom_local;
  AttrSet mentioned = rules.MentionedAttrs();
  AttrSet z_set = AttrSet::FromVector(z);

  // Per-attribute candidate lists; the cross product is the instantiation.
  std::vector<std::vector<Value>> candidates(schema->num_attrs());
  size_t fresh_ordinal = 0;
  size_t total = 1;
  for (AttrId a = 0; a < schema->num_attrs(); ++a) {
    DataType type = schema->attr_type(a);
    std::vector<Value>& cand = candidates[a];
    if (!z_set.Contains(a)) {
      // Unvalidated: initial value is never read by the semantics.
      cand.push_back(FreshValue(type, fresh_ordinal++, dom));
      continue;
    }
    PatternValue pv = row.Get(a);
    if (pv.is_const()) {
      cand.push_back(pv.value());
    } else if (!mentioned.Contains(a)) {
      // Value cannot influence any rule; one representative suffices.
      Value fresh = FreshValue(type, fresh_ordinal++, dom);
      if (pv.is_neg_const() && fresh == pv.value()) {
        fresh = FreshValue(type, fresh_ordinal++, dom);
      }
      cand.push_back(fresh);
    } else {
      for (const Value& v : dom) {
        if (pv.Matches(v)) cand.push_back(v);
      }
      Value fresh = FreshValue(type, fresh_ordinal++, dom);
      if (pv.Matches(fresh)) cand.push_back(fresh);
    }
    if (cand.empty()) return std::vector<Tuple>{};  // unsatisfiable row
    if (total > max_instances / cand.size() + 1) {
      return Status::OutOfRange("instantiation would exceed limit of " +
                                std::to_string(max_instances));
    }
    total *= cand.size();
  }
  if (total > max_instances) {
    return Status::OutOfRange("instantiation would exceed limit of " +
                              std::to_string(max_instances));
  }

  std::vector<Tuple> out;
  out.reserve(total);
  std::vector<size_t> pos(schema->num_attrs(), 0);
  while (true) {
    Tuple t(schema);
    for (AttrId a = 0; a < schema->num_attrs(); ++a) {
      t.Set(a, candidates[a][pos[a]]);
    }
    out.push_back(std::move(t));
    // Odometer increment.
    size_t i = 0;
    for (; i < pos.size(); ++i) {
      if (++pos[i] < candidates[i].size()) break;
      pos[i] = 0;
    }
    if (i == pos.size()) break;
  }
  return out;
}

}  // namespace certfix

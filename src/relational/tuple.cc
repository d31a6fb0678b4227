#include "relational/tuple.h"

namespace certfix {

namespace {
const Value& NullValue() {
  static const Value kNull;
  return kNull;
}
}  // namespace

Tuple::Tuple(SchemaPtr schema, std::vector<Value> values)
    : schema_(std::move(schema)) {
  ids_.reserve(values.size());
  for (Value& v : values) {
    if (v.is_null()) {
      ids_.push_back(kNullValueId);
    } else {
      EnsurePool();
      ids_.push_back(pool_->Intern(v));
    }
  }
}

Result<Tuple> Tuple::FromStrings(SchemaPtr schema,
                                 const std::vector<std::string>& fields) {
  if (fields.size() != schema->num_attrs()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.size()) +
        " does not match schema arity " +
        std::to_string(schema->num_attrs()));
  }
  std::vector<Value> values;
  values.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    values.push_back(
        Value::Parse(fields[i], schema->attr_type(static_cast<AttrId>(i))));
  }
  return Tuple(std::move(schema), std::move(values));
}

Status CheckTupleSchema(const Tuple& t, const SchemaPtr& schema) {
  if (t.schema().get() != schema.get() && !t.schema()->Equals(*schema)) {
    return Status::InvalidArgument("tuple schema does not match relation " +
                                   schema->name());
  }
  return Status::OK();
}

const Value& Tuple::at(AttrId id) const {
  ValueId vid = ids_[id];
  if (vid == kNullValueId || pool_ == nullptr) return NullValue();
  return pool_->value(vid);
}

void Tuple::Set(AttrId id, Value v) & {
  if (v.is_null()) {
    ids_[id] = kNullValueId;
    return;
  }
  EnsurePool();
  ids_[id] = pool_->Intern(v);
}

void Tuple::EnsurePool() {
  if (pool_ == nullptr) pool_ = std::make_shared<ValuePool>();
}

std::vector<Value> Tuple::Project(const std::vector<AttrId>& attrs) const {
  std::vector<Value> out;
  out.reserve(attrs.size());
  for (AttrId a : attrs) out.push_back(at(a));
  return out;
}

bool Tuple::AgreesOn(const std::vector<AttrId>& x, const Tuple& other,
                     const std::vector<AttrId>& y) const {
  if (x.size() != y.size()) return false;
  const bool same_pool = pool_ == other.pool_;
  for (size_t i = 0; i < x.size(); ++i) {
    if (same_pool ? ids_[x[i]] != other.ids_[y[i]]
                  : at(x[i]) != other.at(y[i])) {
      return false;
    }
  }
  return true;
}

size_t Tuple::DiffCount(const Tuple& other) const {
  const bool same_pool = pool_ == other.pool_;
  size_t n = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    AttrId a = static_cast<AttrId>(i);
    if (same_pool ? ids_[i] != other.ids_[i] : at(a) != other.at(a)) ++n;
  }
  return n;
}

std::vector<AttrId> Tuple::DiffAttrs(const Tuple& other) const {
  const bool same_pool = pool_ == other.pool_;
  std::vector<AttrId> out;
  for (size_t i = 0; i < ids_.size(); ++i) {
    AttrId a = static_cast<AttrId>(i);
    if (same_pool ? ids_[i] != other.ids_[i] : at(a) != other.at(a)) {
      out.push_back(a);
    }
  }
  return out;
}

bool Tuple::operator==(const Tuple& other) const {
  if (pool_ == other.pool_) return ids_ == other.ids_;
  if (ids_.size() != other.ids_.size()) return false;
  for (size_t i = 0; i < ids_.size(); ++i) {
    AttrId a = static_cast<AttrId>(i);
    if (at(a) != other.at(a)) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (i > 0) out += ", ";
    out += at(static_cast<AttrId>(i)).ToString();
  }
  out += ")";
  return out;
}

std::string ProjectKey(const Tuple& t, const std::vector<AttrId>& attrs) {
  std::string key;
  for (AttrId a : attrs) {
    key += t.at(a).ToString();
    key += kKeyUnitSep;
  }
  return key;
}

bool ProjectIds(const Tuple& t, const std::vector<AttrId>& attrs,
                const ValuePool* target, PoolBridge* bridge, IdKey* out) {
  out->resize(attrs.size());
  const ValuePool* src = t.pool().get();
  const bool same = src == target;
  const bool bridged = !same && bridge != nullptr && bridge->Covers(src, target);
  for (size_t k = 0; k < attrs.size(); ++k) {
    ValueId id = t.id_at(attrs[k]);
    if (same) {
      (*out)[k] = id;
      continue;
    }
    ValueId mapped;
    if (bridged) {
      mapped = bridge->Translate(id);
    } else if (id == kNullValueId) {
      mapped = kNullValueId;
    } else {
      mapped = target->Find(t.at(attrs[k]));
    }
    if (mapped == kInvalidValueId) return false;
    (*out)[k] = mapped;
  }
  return true;
}

}  // namespace certfix

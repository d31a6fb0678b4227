#include "relational/relation.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace certfix {

Tuple Relation::at(size_t i) const {
  std::vector<ValueId> ids(cols_.size());
  for (size_t a = 0; a < cols_.size(); ++a) ids[a] = cols_[a][i];
  return Tuple(schema_, pool_, std::move(ids));
}

void Relation::SetCell(size_t row, AttrId attr, Value v) {
  cols_[attr][row] = pool_->Intern(std::move(v));
}

void Relation::SetRow(size_t row, const Tuple& t) {
  UpdateRow(row, t);
}

AttrSet Relation::UpdateRow(size_t row, const Tuple& t) {
  AttrSet changed;
  if (t.pool() == pool_) {
    for (size_t a = 0; a < cols_.size(); ++a) {
      ValueId id = t.id_at(static_cast<AttrId>(a));
      if (cols_[a][row] != id) {
        cols_[a][row] = id;
        changed.Add(static_cast<AttrId>(a));
      }
    }
  } else {
    for (size_t a = 0; a < cols_.size(); ++a) {
      const Value& v = t.at(static_cast<AttrId>(a));
      if (Cell(row, static_cast<AttrId>(a)) != v) {
        cols_[a][row] = pool_->Intern(v);
        changed.Add(static_cast<AttrId>(a));
      }
    }
  }
  return changed;
}

void Relation::EraseRow(size_t row) {
  for (IdColumn& col : cols_) {
    col.erase(col.begin() + static_cast<std::ptrdiff_t>(row));
  }
  --num_rows_;
}

Status Relation::Append(const Tuple& t) {
  CERTFIX_RETURN_IF_ERROR(CheckTupleSchema(t, schema_));
  if (t.pool() == pool_) {
    for (size_t a = 0; a < cols_.size(); ++a) {
      cols_[a].push_back(t.id_at(static_cast<AttrId>(a)));
    }
  } else {
    for (size_t a = 0; a < cols_.size(); ++a) {
      cols_[a].push_back(pool_->Intern(t.at(static_cast<AttrId>(a))));
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status Relation::AppendStrings(const std::vector<std::string>& fields) {
  if (fields.size() != schema_->num_attrs()) {
    return Status::InvalidArgument(
        "field count " + std::to_string(fields.size()) +
        " does not match schema arity " +
        std::to_string(schema_->num_attrs()));
  }
  for (size_t a = 0; a < fields.size(); ++a) {
    AttrId attr = static_cast<AttrId>(a);
    cols_[a].push_back(
        pool_->Intern(Value::Parse(fields[a], schema_->attr_type(attr))));
  }
  ++num_rows_;
  return Status::OK();
}

std::vector<Value> Relation::DistinctValues(AttrId attr) const {
  std::unordered_set<ValueId> seen;
  std::vector<Value> out;
  for (ValueId id : cols_[attr]) {
    if (seen.insert(id).second) out.push_back(pool_->value(id));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Value> Relation::ActiveDomain() const {
  std::unordered_set<ValueId> seen;
  std::vector<Value> out;
  for (const auto& col : cols_) {
    for (ValueId id : col) {
      if (seen.insert(id).second) out.push_back(pool_->value(id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string ProjectKey(const Relation& rel, size_t row,
                       const std::vector<AttrId>& attrs) {
  std::string key;
  for (AttrId a : attrs) {
    key += rel.Cell(row, a).ToString();
    key += kKeyUnitSep;
  }
  return key;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << schema_->ToString() << " [" << num_rows_ << " rows]\n";
  for (size_t i = 0; i < num_rows_ && i < max_rows; ++i) {
    os << "  " << at(i).ToString() << "\n";
  }
  if (num_rows_ > max_rows) os << "  ...\n";
  return os.str();
}

}  // namespace certfix

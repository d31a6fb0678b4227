#include "stream/delta_source.h"

#include <iterator>
#include <ostream>

#include "relational/csv.h"
#include "util/string_util.h"

namespace certfix {

bool IsMasterDelta(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kMasterInsert:
    case DeltaKind::kMasterUpdate:
    case DeltaKind::kMasterDelete:
      return true;
    default:
      return false;
  }
}

namespace {

Status LineError(size_t line, const std::string& message) {
  return Status::ParseError("delta log line " + std::to_string(line) + ": " +
                            message);
}

/// Each DeltaKind's op in the log, in enumerator order.
constexpr const char* kOpNames[] = {"I", "U", "D", "MI", "MU", "MD"};

bool ParseKind(const std::string& op, DeltaKind* kind) {
  for (size_t k = 0; k < std::size(kOpNames); ++k) {
    if (op == kOpNames[k]) {
      *kind = static_cast<DeltaKind>(k);
      return true;
    }
  }
  return false;
}

/// The two record shapes: whether a kind carries a row position, and
/// whether it carries a full row of fields.
bool NeedsRow(DeltaKind kind) {
  return kind == DeltaKind::kUpdate || kind == DeltaKind::kDelete ||
         kind == DeltaKind::kMasterUpdate || kind == DeltaKind::kMasterDelete;
}

bool NeedsFields(DeltaKind kind) {
  return kind != DeltaKind::kDelete && kind != DeltaKind::kMasterDelete;
}

}  // namespace

Result<bool> DeltaLogSource::Next(Delta* delta) {
  std::vector<std::string> record;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, reader_.Next(&record));
    if (!got) return false;
    if (!record.empty() && !record[0].empty() && record[0][0] == '#') {
      continue;  // comment record
    }
    break;
  }
  size_t line = reader_.record_line();
  if (record.size() < 2) {
    return LineError(line, "expected at least op and row fields");
  }
  delta->fields.clear();
  if (!ParseKind(record[0], &delta->kind)) {
    return LineError(line, "unknown op '" + record[0] + "'");
  }
  delta->row = 0;
  if (NeedsRow(delta->kind)) {
    // Strict digits only: strtoul would quietly accept " 5" and "+5",
    // turning malformed logs into positional mutations of the wrong row.
    const std::string& s = record[1];
    size_t v = 0;
    if (!ParseSizeStrict(s, &v)) {
      return LineError(line, "op " + record[0] +
                                 " needs a non-negative row, got '" + s + "'");
    }
    delta->row = v;
  }
  if (NeedsFields(delta->kind)) {
    const SchemaPtr& schema =
        IsMasterDelta(delta->kind) ? master_schema_ : schema_;
    if (record.size() != 2 + schema->num_attrs()) {
      return LineError(line, "op " + record[0] + " carries " +
                                 std::to_string(record.size() - 2) +
                                 " fields, schema arity is " +
                                 std::to_string(schema->num_attrs()));
    }
    delta->fields.assign(record.begin() + 2, record.end());
  } else if (record.size() != 2) {
    return LineError(line, "op " + record[0] + " takes no fields");
  }
  return true;
}

Status WriteDeltaLog(const std::string& name, uint64_t seed,
                     const std::vector<Delta>& deltas, std::ostream& out) {
  out << "# scenario " << name << " seed=" << seed << "\n";
  for (const Delta& d : deltas) {
    std::vector<std::string> fields = {
        kOpNames[static_cast<size_t>(d.kind)],
        NeedsRow(d.kind) ? std::to_string(d.row) : ""};
    if (NeedsFields(d.kind)) {
      fields.insert(fields.end(), d.fields.begin(), d.fields.end());
    }
    out << FormatCsvLine(fields) << "\n";
  }
  if (!out) return Status::Internal("delta log write failed");
  return Status::OK();
}

}  // namespace certfix

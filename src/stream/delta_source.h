/// \file delta_source.h
/// \brief Mutation ingest for the incremental repair engine: typed deltas
/// over the maintained relation (and its master data) plus the sources
/// that produce them.
///
/// A Delta is the unit the incremental engine (src/incremental/) consumes,
/// exactly as a field vector from CsvTupleSource is the unit the streaming
/// engine consumes: fields stay strings at this layer (same typing rules
/// as CSV loading apply downstream), so sources never need a ValuePool and
/// deltas cross thread boundaries freely.
///
/// Delta-log text format (written by WriteDeltaLog and read by
/// DeltaLogSource, one logical CSV record per delta via CsvRecordReader —
/// quoted fields, CRLF, and embedded newlines all work):
///
/// ```
/// # comment lines start with '#'
/// I,,f1,f2,...,fn      insert: appends a row (position field empty)
/// U,<row>,f1,...,fn    update: replaces the row at 0-based position <row>
/// D,<row>              delete: removes the row at position <row>
/// MI,,f1,...,fm        master insert (master-schema arity)
/// MU,<row>,f1,...,fm   master update
/// MD,<row>             master delete
/// ```
///
/// Positions refer to the relation as visible at the moment the delta is
/// applied (deletes shift later rows up, inserts append), matching the
/// from-scratch oracle: applying the log to the input CSV positionally and
/// running BatchRepair over the result is the reference output.

#ifndef CERTFIX_STREAM_DELTA_SOURCE_H_
#define CERTFIX_STREAM_DELTA_SOURCE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "relational/csv_stream.h"
#include "relational/schema.h"
#include "util/result.h"

namespace certfix {

/// \brief Kind of mutation. kInsert/kUpdate/kDelete address the maintained
/// input relation; the kMaster* kinds address the master relation Dm.
enum class DeltaKind : uint8_t {
  kInsert,
  kUpdate,
  kDelete,
  kMasterInsert,
  kMasterUpdate,
  kMasterDelete,
};

/// True for the kMaster* kinds.
bool IsMasterDelta(DeltaKind kind);

/// \brief One mutation. `row` is meaningful for update/delete kinds;
/// `fields` carries the full row (schema arity) for insert/update kinds.
struct Delta {
  DeltaKind kind = DeltaKind::kInsert;
  size_t row = 0;
  std::vector<std::string> fields;
};

/// \brief Pull-based producer of deltas, mirroring CsvTupleSource.
class DeltaSource {
 public:
  virtual ~DeltaSource() = default;

  /// Reads the next delta into `*delta`. Returns true when one was read,
  /// false at clean end of input; fails on malformed records.
  virtual Result<bool> Next(Delta* delta) = 0;
};

/// \brief Parses the delta-log text format above. Arity of insert/update
/// records is validated against `schema` (input kinds) or `master_schema`
/// (master kinds) so a malformed log fails at the source, tagged with the
/// record's starting line, before anything reaches the engine.
class DeltaLogSource : public DeltaSource {
 public:
  /// `in` must outlive the source.
  DeltaLogSource(SchemaPtr schema, SchemaPtr master_schema, std::istream& in)
      : schema_(std::move(schema)),
        master_schema_(std::move(master_schema)),
        reader_(in) {}

  Result<bool> Next(Delta* delta) override;

  /// Starting line of the last record (see CsvRecordReader).
  size_t record_line() const { return reader_.record_line(); }

 private:
  SchemaPtr schema_;
  SchemaPtr master_schema_;
  CsvRecordReader reader_;
};

/// Renders `deltas` in the delta-log text format above, one CSV record per
/// delta, hostile values quoted. The leading comment line carries `name`
/// and `seed` so logs are self-describing; it is part of the pinned
/// bytes. Fails if `out` fails.
Status WriteDeltaLog(const std::string& name, uint64_t seed,
                     const std::vector<Delta>& deltas, std::ostream& out);

/// \brief In-memory source for tests and benchmarks.
class VectorDeltaSource : public DeltaSource {
 public:
  explicit VectorDeltaSource(std::vector<Delta> deltas)
      : deltas_(std::move(deltas)) {}

  Result<bool> Next(Delta* delta) override {
    if (next_ >= deltas_.size()) return false;
    *delta = deltas_[next_++];
    return true;
  }

 private:
  std::vector<Delta> deltas_;
  size_t next_ = 0;
};

}  // namespace certfix

#endif  // CERTFIX_STREAM_DELTA_SOURCE_H_

/// \file csv_stream.h
/// \brief Incremental CSV reading for the streaming repair engine (and,
/// since the batch loaders are built on it, for ReadCsv as well).
///
/// CsvRecordReader, the one CSV parser, consumes one *logical record* at
/// a time directly from the input stream, so RFC-4180 quoted fields may
/// contain delimiters, quotes, CR, and record separators (embedded
/// newlines). CRLF and LF line endings are both
/// accepted; a CR inside a quoted field is preserved. Memory is bounded
/// by the size of one record — the reader never materializes the input.

#ifndef CERTFIX_RELATIONAL_CSV_STREAM_H_
#define CERTFIX_RELATIONAL_CSV_STREAM_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "util/result.h"

namespace certfix {

/// \brief Pull-based reader of logical CSV records.
class CsvRecordReader {
 public:
  /// `in` must outlive the reader. Blank lines (outside quotes) are
  /// skipped, matching the historical ReadCsv behavior.
  explicit CsvRecordReader(std::istream& in) : in_(&in) {}

  CsvRecordReader(const CsvRecordReader&) = delete;
  CsvRecordReader& operator=(const CsvRecordReader&) = delete;

  /// Reads the next record into `*fields` (cleared first). Returns true
  /// when a record was read, false at clean end of input; ParseError on
  /// malformed quoting (e.g. a quote opened but never closed).
  Result<bool> Next(std::vector<std::string>* fields);

  /// Physical line number (1-based) where the last returned record
  /// started — for error messages over multi-line records.
  size_t record_line() const { return record_line_; }

 private:
  std::istream* in_;
  size_t line_ = 1;         ///< current physical line
  size_t record_line_ = 0;  ///< first line of the last record
};

/// \brief Schema-checked tuple source: the reader every command's input
/// passes through (ReadCsv is built on it; repair-stream pulls from it
/// directly). Validates the header against the schema on the first
/// Next() call and then yields one field vector per record, ready for
/// StreamRepairEngine::PushStrings. Each data record it yields adds 1 to
/// the `csv.rows_read` counter.
class CsvTupleSource {
 public:
  /// `in` must outlive the source.
  CsvTupleSource(SchemaPtr schema, std::istream& in)
      : schema_(std::move(schema)), reader_(in) {}

  /// Reads the next data record. Returns true on success, false at end
  /// of input; fails on a bad header, malformed quoting, or an arity
  /// mismatch (all tagged with the record's starting line).
  Result<bool> Next(std::vector<std::string>* fields);

  const SchemaPtr& schema() const { return schema_; }

  /// Starting line of the last record (see CsvRecordReader).
  size_t record_line() const { return reader_.record_line(); }

 private:
  SchemaPtr schema_;
  CsvRecordReader reader_;
  bool header_checked_ = false;
};

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_CSV_STREAM_H_

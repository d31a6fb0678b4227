/// \file csv.h
/// \brief Minimal CSV reader/writer for relations (RFC-4180 quoting).
///
/// The batch loaders below are built on the incremental record reader of
/// csv_stream.h, so quoted fields may contain delimiters and embedded
/// newlines, and CRLF input is accepted. FormatCsvLine renders one
/// record; CsvRecordReader (csv_stream.h) is the one parser.

#ifndef CERTFIX_RELATIONAL_CSV_H_
#define CERTFIX_RELATIONAL_CSV_H_

#include <iosfwd>
#include <string>

#include "relational/relation.h"
#include "util/result.h"

namespace certfix {

/// Renders fields as one CSV line, quoting where needed.
std::string FormatCsvLine(const std::vector<std::string>& fields);

/// Reads a relation from CSV text through a CsvTupleSource (so its rows
/// count in `csv.rows_read`). The first line must be a header whose
/// column names match the schema's attribute names (order included).
Result<Relation> ReadCsv(SchemaPtr schema, std::istream& in);
Result<Relation> ReadCsvFile(SchemaPtr schema, const std::string& path);

/// Reads a relation inferring the schema from the header line (all
/// attributes typed as strings). `name` becomes the schema name.
Result<Relation> ReadCsvInferSchema(const std::string& name,
                                    std::istream& in);
Result<Relation> ReadCsvFileInferSchema(const std::string& name,
                                        const std::string& path);

/// Writes the relation with a header line; fails if `out` fails.
Status WriteCsv(const Relation& rel, std::ostream& out);
/// Writes the relation to `path` whole or not at all (util/output_file.h).
Status WriteCsvFile(const Relation& rel, const std::string& path);

}  // namespace certfix

#endif  // CERTFIX_RELATIONAL_CSV_H_

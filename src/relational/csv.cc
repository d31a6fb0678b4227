#include "relational/csv.h"

#include <fstream>
#include <sstream>

#include "relational/csv_stream.h"
#include "util/output_file.h"
#include "util/string_util.h"

namespace certfix {

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    const std::string& f = fields[i];
    bool needs_quote = f.find_first_of(",\"\n\r") != std::string::npos;
    if (needs_quote) {
      out += '"';
      for (char c : f) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    } else {
      out += f;
    }
  }
  return out;
}

Result<Relation> ReadCsv(SchemaPtr schema, std::istream& in) {
  CsvTupleSource source(schema, in);
  Relation rel(std::move(schema));
  std::vector<std::string> fields;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, source.Next(&fields));
    if (!got) break;
    Status st = rel.AppendStrings(fields);
    if (!st.ok()) {
      return Status::ParseError("line " +
                                std::to_string(source.record_line()) + ": " +
                                st.message());
    }
  }
  return rel;
}

Result<Relation> ReadCsvFile(SchemaPtr schema, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  return ReadCsv(std::move(schema), in);
}

Result<Relation> ReadCsvInferSchema(const std::string& name,
                                    std::istream& in) {
  CsvRecordReader reader(in);
  std::vector<std::string> columns;
  CERTFIX_ASSIGN_OR_RETURN(bool got_header, reader.Next(&columns));
  if (!got_header) {
    return Status::ParseError("empty CSV input: missing header");
  }
  std::vector<std::string> trimmed;
  for (const std::string& c : columns) {
    trimmed.emplace_back(Trim(c));
    if (trimmed.back().empty()) {
      return Status::ParseError("empty column name in CSV header");
    }
  }
  SchemaPtr schema = Schema::Make(name, trimmed);
  Relation rel(schema);
  std::vector<std::string> fields;
  for (;;) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, reader.Next(&fields));
    if (!got) break;
    Status st = rel.AppendStrings(fields);
    if (!st.ok()) {
      return Status::ParseError("line " +
                                std::to_string(reader.record_line()) + ": " +
                                st.message());
    }
  }
  return rel;
}

Result<Relation> ReadCsvFileInferSchema(const std::string& name,
                                        const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open file: " + path);
  return ReadCsvInferSchema(name, in);
}

Status WriteCsv(const Relation& rel, std::ostream& out) {
  std::vector<std::string> header;
  for (size_t i = 0; i < rel.schema()->num_attrs(); ++i) {
    header.push_back(rel.schema()->attr_name(static_cast<AttrId>(i)));
  }
  out << FormatCsvLine(header) << "\n";
  for (const Tuple& t : rel) {
    std::vector<std::string> fields;
    fields.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      const Value& v = t.at(static_cast<AttrId>(i));
      fields.push_back(v.is_null() ? "" : v.ToString());
    }
    out << FormatCsvLine(fields) << "\n";
  }
  if (!out) return Status::Internal("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const Relation& rel, const std::string& path) {
  OutputFile file(path);
  (void)WriteCsv(rel, file.stream());  // a failed write fails the commit
  return file.Commit();
}

}  // namespace certfix

#include "relational/csv_stream.h"

#include <istream>
#include <streambuf>

#include "telemetry/metrics.h"
#include "util/string_util.h"

namespace certfix {

Result<bool> CsvRecordReader::Next(std::vector<std::string>* fields) {
  fields->clear();
  std::string cur;
  bool in_quotes = false;
  bool any_content = false;  // saw a field char, separator, or quote
  record_line_ = line_;
  // Read straight off the streambuf: one virtual call per character
  // instead of istream::get()'s per-call sentry — this reader underlies
  // every CSV load in the codebase, so the per-byte cost matters.
  std::streambuf* in = in_->rdbuf();
  for (;;) {
    int ci = in->sbumpc();
    if (ci == std::char_traits<char>::eof()) {
      if (in_quotes) {
        return Status::ParseError("line " + std::to_string(record_line_) +
                                  ": unterminated quoted field");
      }
      if (!any_content) return false;  // clean end of input
      fields->push_back(std::move(cur));
      return true;
    }
    char c = static_cast<char>(ci);
    if (in_quotes) {
      if (c == '"') {
        if (in->sgetc() == '"') {
          cur += '"';
          in->sbumpc();
        } else {
          in_quotes = false;
        }
      } else {
        // Everything else — delimiters, CR, record separators — is
        // literal inside quotes.
        if (c == '\n') ++line_;
        cur += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!cur.empty()) {
          return Status::ParseError(
              "line " + std::to_string(line_) +
              ": unexpected quote mid-field");
        }
        in_quotes = true;
        any_content = true;
        break;
      case ',':
        fields->push_back(std::move(cur));
        cur.clear();
        any_content = true;
        break;
      case '\r':
        // CRLF (or CR at end of input) ends the record like LF does; a
        // bare CR mid-line is tolerated and dropped, matching the
        // historical line parser.
        if (in->sgetc() != '\n') break;
        in->sbumpc();
        [[fallthrough]];
      case '\n':
        ++line_;
        if (!any_content && cur.empty() && fields->empty()) {
          // Blank line: skip and keep scanning for a record.
          record_line_ = line_;
          break;
        }
        fields->push_back(std::move(cur));
        return true;
      default:
        cur += c;
        any_content = true;
        break;
    }
  }
}

Result<bool> CsvTupleSource::Next(std::vector<std::string>* fields) {
  if (!header_checked_) {
    CERTFIX_ASSIGN_OR_RETURN(bool got, reader_.Next(fields));
    if (!got) {
      return Status::ParseError("empty CSV input: missing header");
    }
    if (fields->size() != schema_->num_attrs()) {
      return Status::ParseError(
          "CSV header arity " + std::to_string(fields->size()) +
          " != schema arity " + std::to_string(schema_->num_attrs()));
    }
    for (size_t i = 0; i < fields->size(); ++i) {
      if (std::string(Trim((*fields)[i])) !=
          schema_->attr_name(static_cast<AttrId>(i))) {
        return Status::ParseError(
            "CSV header column " + std::to_string(i) + " is '" +
            (*fields)[i] + "', expected '" +
            schema_->attr_name(static_cast<AttrId>(i)) + "'");
      }
    }
    header_checked_ = true;
  }
  CERTFIX_ASSIGN_OR_RETURN(bool got, reader_.Next(fields));
  if (!got) return false;
  if (fields->size() != schema_->num_attrs()) {
    return Status::ParseError(
        "line " + std::to_string(reader_.record_line()) + ": field count " +
        std::to_string(fields->size()) + " does not match schema arity " +
        std::to_string(schema_->num_attrs()));
  }
  CERTFIX_TL_COUNTER("csv.rows_read")->Increment();
  return true;
}

}  // namespace certfix

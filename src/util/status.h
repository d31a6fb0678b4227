/// \file status.h
/// \brief Lightweight Status type for error handling without exceptions,
/// following the Arrow/RocksDB idiom used throughout this library.

#ifndef CERTFIX_UTIL_STATUS_H_
#define CERTFIX_UTIL_STATUS_H_

#include <cerrno>
#include <cstring>
#include <ostream>
#include <string>
#include <utility>

namespace certfix {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kParseError,
  kInconsistent,   ///< Editing rules + master data conflict (Sect. 4.1).
  kNotCovered,     ///< Region fails to cover all attributes (Sect. 4.1).
  kUnsupported,
  kInternal,
};

/// \brief Result of an operation: either OK or a code with a message.
///
/// Status is cheap to copy in the OK case (no allocation) and is used as the
/// return type of every fallible operation in the library.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Inconsistent(std::string msg) {
    return Status(StatusCode::kInconsistent, std::move(msg));
  }
  static Status NotCovered(std::string msg) {
    return Status(StatusCode::kNotCovered, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad attribute".
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(CodeName(code_)) + ": " + msg_;
  }

  static const char* CodeName(StatusCode code) {
    switch (code) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kNotFound: return "NotFound";
      case StatusCode::kAlreadyExists: return "AlreadyExists";
      case StatusCode::kOutOfRange: return "OutOfRange";
      case StatusCode::kParseError: return "ParseError";
      case StatusCode::kInconsistent: return "Inconsistent";
      case StatusCode::kNotCovered: return "NotCovered";
      case StatusCode::kUnsupported: return "Unsupported";
      case StatusCode::kInternal: return "Internal";
    }
    return "Unknown";
  }

 private:
  StatusCode code_;
  std::string msg_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// The error of system call `op` failing on `path`, with the cause `err`
/// names: e.g. "Internal: write out.csv.tmp: No space left on device".
inline Status Errno(const std::string& op, const std::string& path,
                    int err = errno) {
  return Status::Internal(op + " " + path + ": " + std::strerror(err));
}

/// Propagate a non-OK Status to the caller.
#define CERTFIX_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::certfix::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace certfix

#endif  // CERTFIX_UTIL_STATUS_H_

/// \file output_file.h
/// \brief The one writer of the files the program produces: every CLI
/// output, and the storage files through storage::WriteFileAtomic.
///
/// An OutputFile writes `PATH.tmp` beside PATH and renames it over PATH
/// only once the open, every write and the close succeeded; otherwise it
/// removes the temporary and PATH keeps its old bytes. That holds when
/// PATH is missing or a regular file. Anything else at PATH (a symlink
/// such as /dev/stdout, a pipe, a device) is written in place, still
/// checked, since a rename would replace the link or node itself instead
/// of writing through it; such a write is not atomic.

#ifndef CERTFIX_UTIL_OUTPUT_FILE_H_
#define CERTFIX_UTIL_OUTPUT_FILE_H_

#include <fstream>
#include <string>

#include "util/status.h"

namespace certfix {

class OutputFile {
 public:
  explicit OutputFile(std::string path);  ///< opens the temporary
  /// Removes the temporary unless Commit() succeeded.
  ~OutputFile();

  OutputFile(const OutputFile&) = delete;
  OutputFile& operator=(const OutputFile&) = delete;

  /// Where the bytes go; failed once the open or a write failed.
  std::ostream& stream() { return out_; }

  /// Writes `bytes` and checks the write at once, so a failure keeps its
  /// errno cause (a failed stream write found only by Commit has lost it).
  /// A failed open is left for Commit to report.
  Status Write(const std::string& bytes);

  /// Closes the stream and, if nothing failed, renames the temporary over
  /// the path (after an fsync of the file when `sync`); else returns the
  /// error with its errno cause. Call once.
  Status Commit(bool sync = false);

 private:
  std::string path_;
  std::string tmp_;  ///< equals path_ when written in place
  std::ofstream out_;
  int open_errno_ = 0;  ///< why the open failed
  bool committed_ = false;
};

/// Writes `bytes` to `path` through an OutputFile.
Status WriteFile(const std::string& path, const std::string& bytes,
                 bool sync = false);

}  // namespace certfix

#endif  // CERTFIX_UTIL_OUTPUT_FILE_H_

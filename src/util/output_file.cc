#include "util/output_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace certfix {

namespace {

/// The temporary for `path`, or `path` itself unless it is missing or a
/// regular file. lstat, not stat: a symlink to a regular file is written
/// through, not replaced.
std::string TempPath(const std::string& path) {
  struct stat st;
  const bool in_place =
      ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  return in_place ? path : path + ".tmp";
}

}  // namespace

OutputFile::OutputFile(std::string path)
    : path_(std::move(path)),
      tmp_(TempPath(path_)),
      out_(tmp_, std::ios::binary | std::ios::trunc) {
  if (!out_.is_open()) open_errno_ = errno;
}

OutputFile::~OutputFile() {
  if (committed_) return;
  out_.close();
  if (tmp_ != path_) std::remove(tmp_.c_str());
}

Status OutputFile::Commit(bool sync) {
  if (!out_.is_open()) return Errno("open", tmp_, open_errno_);
  errno = 0;
  out_.close();  // writes out what the stream still buffers
  if (out_.fail()) {
    // errno stays 0 when an earlier write failed and left nothing to
    // retry; its cause is gone by now.
    if (errno == 0) return Status::Internal("cannot write " + tmp_);
    return Errno("write", tmp_);
  }
  if (sync) {
    const int fd = ::open(tmp_.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open", tmp_);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Errno("fsync", tmp_);
  }
  if (tmp_ != path_ && std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    return Errno("rename", path_);
  }
  committed_ = true;
  return Status::OK();
}

Status OutputFile::Write(const std::string& bytes) {
  if (out_.is_open() &&
      !out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    return Errno("write", tmp_);
  }
  return Status::OK();
}

Status WriteFile(const std::string& path, const std::string& bytes,
                 bool sync) {
  OutputFile file(path);
  CERTFIX_RETURN_NOT_OK(file.Write(bytes));
  return file.Commit(sync);
}

}  // namespace certfix

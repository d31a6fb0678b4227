#include "storage/io_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <fstream>

#include "util/output_file.h"

namespace certfix {
namespace storage {

namespace {

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* q = *p;
  while (q < end && shift < 70) {
    uint8_t byte = *q++;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *p = q;
      *v = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return Status::Internal("read failed on " + path);
  return bytes;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  CERTFIX_RETURN_IF_ERROR(WriteFile(path, bytes, /*sync=*/true));
  size_t slash = path.find_last_of('/');
  return FsyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

}  // namespace storage
}  // namespace certfix

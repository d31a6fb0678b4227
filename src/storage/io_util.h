/// \file io_util.h
/// \brief Byte-level primitives shared by the persistent storage layer:
/// CRC32, varint/zigzag coding, little-endian field access, whole-file
/// reads and atomic file replacement.
///
/// Everything here is deliberately format-agnostic — the columnar
/// snapshot (storage/columnar.h) and the write-ahead log (storage/wal.h)
/// compose these primitives into their on-disk layouts. All multi-byte
/// integers in those formats are little-endian regardless of host order,
/// so the helpers below serialize byte-by-byte.

#ifndef CERTFIX_STORAGE_IO_UTIL_H_
#define CERTFIX_STORAGE_IO_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/result.h"

namespace certfix {
namespace storage {

/// CRC-32 (IEEE 802.3 polynomial, same as zlib's crc32) over `len` bytes.
/// Chainable: pass a previous result as `seed` to extend the checksum.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Zigzag mapping so small-magnitude signed deltas get short varints.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// LEB128 unsigned varint append (1..10 bytes).
void PutVarint(std::string* out, uint64_t v);
/// Reads one varint at `*p`, advancing it; false on truncation or a
/// varint longer than 10 bytes. `end` is one past the last readable byte.
bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v);

/// Fixed-width little-endian appends.
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// Fixed-width little-endian reads (caller guarantees 4/8 readable bytes).
uint32_t ReadU32(const uint8_t* p);
uint64_t ReadU64(const uint8_t* p);

/// Whole-file read into a string (binary, no size limit checks beyond
/// what the filesystem enforces).
Result<std::string> ReadFileBytes(const std::string& path);

/// Durable whole-file replace: an OutputFile (util/output_file.h) writes
/// `path.tmp`, fsyncs it and renames it over `path`, then the parent
/// directory is fsynced so the rename itself is durable. The visible file
/// is always either the old or the new bytes (for a `path` that is missing
/// or a regular file; OutputFile writes anything else in place).
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// fsync on a directory fd, making a preceding rename/creat in it durable.
Status FsyncDir(const std::string& dir);

}  // namespace storage
}  // namespace certfix

#endif  // CERTFIX_STORAGE_IO_UTIL_H_

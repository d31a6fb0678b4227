/// \file columnar.h
/// \brief Persistent columnar snapshot of a Relation (the master store of
/// ROADMAP item 2): a dictionary page serializing the ValuePool plus one
/// block of dense uint32 ValueIds per attribute, all little-endian,
/// versioned and CRC-checked per section.
///
/// File layout (offsets in bytes; every integer little-endian):
///
/// ```
/// header (44 bytes):
///   0  magic "CFXSNAP1"
///   8  version        u32   (currently 1)
///   12 num_attrs      u32
///   16 num_rows       u64
///   24 dict_entries   u32   (pool size, null slot 0 included)
///   28 flags          u32   (bit 0: columns compressed; always set by
///                            the writer, ignored by the reader)
///   32 footer_off     u64
///   40 header_crc     u32   (CRC32 of bytes [0, 40))
/// sections, back to back (2 + num_attrs of them):
///   schema    relation name + per-attr name/type (varint strings, u8 type)
///   dict      values for ids 1..dict_entries-1 in id order:
///             tag u8 (1 int / 2 double / 3 string),
///             int: zigzag varint; double: 8-byte IEEE754 LE bit pattern;
///             string: varint length + bytes
///   column*N  encoding u8 (0 raw / 1 delta-varint), then
///             delta-varint: num_rows varints of zigzag(id[i] - id[i-1])
///             raw: zero padding to 4-byte file alignment, then
///                  num_rows * 4 bytes of u32 ids
///             The writer emits delta-varint only; the reader still
///             decodes raw blocks, which earlier writers could emit.
/// footer:
///   section_count u32, then per section offset u64 / length u64 / crc u32,
///   then footer_crc u32 over the footer bytes before it
/// ```
///
/// The writer replaces the file atomically (tmp + rename + dir fsync), so
/// a crash mid-write never exposes a torn snapshot. The reader verifies
/// every CRC before trusting a byte.

#ifndef CERTFIX_STORAGE_COLUMNAR_H_
#define CERTFIX_STORAGE_COLUMNAR_H_

#include <string>

#include "relational/relation.h"
#include "util/result.h"

namespace certfix {
namespace storage {

/// Serializes `rel` (schema, dictionary, id columns) to `path`,
/// atomically. Records `snapshot.bytes` / `snapshot.writes` telemetry.
Status WriteColumnar(const Relation& rel, const std::string& path);

/// Loads a snapshot written by WriteColumnar into RAM. The returned
/// Relation owns a fresh pool rebuilt from the dictionary page. Any CRC
/// or structural mismatch fails loudly — a snapshot is never silently
/// half-read.
Result<Relation> ReadColumnar(const std::string& path);

}  // namespace storage
}  // namespace certfix

#endif  // CERTFIX_STORAGE_COLUMNAR_H_

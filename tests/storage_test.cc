/// \file storage_test.cc
/// \brief Unit tests for the columnar snapshot format and its primitives
/// (storage/io_util.h, storage/columnar.h): varint/zigzag/CRC round
/// trips, snapshot byte-identity, exhaustive corruption detection, and
/// checked-in snapshot files that pin the format (tests/golden/snapshot/).

#include "storage/columnar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "relational/relation.h"
#include "storage/io_util.h"

namespace certfix {
namespace {

std::string ToCsv(const Relation& rel) {
  std::ostringstream out;
  EXPECT_TRUE(WriteCsv(rel, out).ok());
  return out.str();
}

/// Mixed-type relation with hostile cell content: embedded commas,
/// quotes, newlines, NULs, empty strings, int/double extremes, nulls.
Relation HostileRelation() {
  SchemaPtr schema = Schema::Make(
      "T", std::vector<Attribute>{{"name", DataType::kString},
                                  {"n", DataType::kInt},
                                  {"x", DataType::kDouble}});
  Relation rel(schema);
  auto add = [&](const std::string& name, const std::string& n,
                 const std::string& x) {
    Result<Tuple> t = Tuple::FromStrings(schema, {name, n, x});
    ASSERT_TRUE(t.ok()) << t.status();
    ASSERT_TRUE(rel.Append(*t).ok());
  };
  add("plain", "0", "0");
  add("comma,inside", "-1", "-0.5");
  add("\"quoted\"", "9223372036854775807", "1e308");
  add("line\nbreak", "-9223372036854775808", "4.9e-324");
  add(std::string("nul\0byte", 8), "42", "-0");
  add("has-nulls", "", "");  // empty fields parse to nulls
  add("dup", "42", "0.1");
  add("dup", "42", "0.1");  // repeated values share dictionary ids
  return rel;
}

TEST(IoUtilTest, VarintRoundTrip) {
  const uint64_t kValues[] = {0,
                              1,
                              127,
                              128,
                              16383,
                              16384,
                              (1ull << 32) - 1,
                              1ull << 32,
                              (1ull << 63),
                              std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : kValues) {
    std::string buf;
    storage::PutVarint(&buf, v);
    ASSERT_LE(buf.size(), 10u);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    const uint8_t* end = p + buf.size();
    uint64_t got = 0;
    ASSERT_TRUE(storage::GetVarint(&p, end, &got)) << v;
    EXPECT_EQ(got, v);
    EXPECT_EQ(p, end) << "decoder must consume exactly what was written";
  }
}

TEST(IoUtilTest, VarintRejectsTruncationAndOverlong) {
  std::string buf;
  storage::PutVarint(&buf, std::numeric_limits<uint64_t>::max());
  // Every strict prefix is a truncation error.
  for (size_t len = 0; len < buf.size(); ++len) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    uint64_t got = 0;
    EXPECT_FALSE(storage::GetVarint(&p, p + len, &got)) << len;
  }
  // 11 continuation bytes can never be a valid u64 varint.
  std::string overlong(11, '\x80');
  const uint8_t* p = reinterpret_cast<const uint8_t*>(overlong.data());
  uint64_t got = 0;
  EXPECT_FALSE(storage::GetVarint(&p, p + overlong.size(), &got));
}

TEST(IoUtilTest, ZigzagRoundTrip) {
  const int64_t kValues[] = {0, -1, 1, -2, 63, -64,
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max()};
  for (int64_t v : kValues) {
    EXPECT_EQ(storage::ZigzagDecode(storage::ZigzagEncode(v)), v);
  }
  // Small magnitudes must map to small codes (that's the point).
  EXPECT_EQ(storage::ZigzagEncode(0), 0u);
  EXPECT_EQ(storage::ZigzagEncode(-1), 1u);
  EXPECT_EQ(storage::ZigzagEncode(1), 2u);
}

TEST(IoUtilTest, Crc32KnownVectorAndChaining) {
  // The standard IEEE CRC-32 check value.
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  // Chained computation over a split buffer equals the whole.
  const char* data = "the quick brown fox";
  uint32_t whole = storage::Crc32(data, 19);
  uint32_t part = storage::Crc32(data, 7);
  EXPECT_EQ(storage::Crc32(data + 7, 12, part), whole);
}

TEST(IoUtilTest, AtomicWriteReadBack) {
  std::string path = ::testing::TempDir() + "/atomic_rw.bin";
  std::string payload = std::string("bytes\0with\0nuls", 15);
  ASSERT_TRUE(storage::WriteFileAtomic(path, payload).ok());
  Result<std::string> back = storage::ReadFileBytes(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, payload);
  // No temp file left behind.
  EXPECT_FALSE(storage::ReadFileBytes(path + ".tmp").ok());
}

TEST(ColumnarTest, RoundTripIsByteIdentical) {
  Relation rel = HostileRelation();
  std::string path = ::testing::TempDir() + "/roundtrip.col";
  ASSERT_TRUE(storage::WriteColumnar(rel, path).ok());

  Result<Relation> back = storage::ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->schema()->name(), rel.schema()->name());
  EXPECT_EQ(back->schema()->num_attrs(), rel.schema()->num_attrs());
  for (size_t a = 0; a < rel.schema()->num_attrs(); ++a) {
    EXPECT_EQ(back->schema()->attr_name(static_cast<AttrId>(a)),
              rel.schema()->attr_name(static_cast<AttrId>(a)));
    EXPECT_EQ(back->schema()->attr_type(static_cast<AttrId>(a)),
              rel.schema()->attr_type(static_cast<AttrId>(a)));
  }
  ASSERT_EQ(back->size(), rel.size());
  EXPECT_EQ(ToCsv(*back), ToCsv(rel));
  // Null cells survive as nulls.
  EXPECT_TRUE(back->Cell(5, 1).is_null());
  EXPECT_TRUE(back->Cell(5, 2).is_null());
  EXPECT_EQ(back->Cell(5, 0).as_string(), "has-nulls");
}

TEST(ColumnarTest, EmptyRelationRoundTrips) {
  SchemaPtr schema = Schema::Make("E", std::vector<std::string>{"a", "b"});
  Relation rel(schema);
  std::string path = ::testing::TempDir() + "/empty.col";
  ASSERT_TRUE(storage::WriteColumnar(rel, path).ok());
  Result<Relation> back = storage::ReadColumnar(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(ToCsv(*back), ToCsv(rel));
}

/// A snapshot file checked in under tests/golden/snapshot/.
std::string GoldenSnapshot(const std::string& name) {
  return std::string(CERTFIX_GOLDEN_DIR) + "/snapshot/" + name;
}

std::string FileBytes(const std::string& path) {
  Result<std::string> bytes = storage::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

/// Writes `bytes` to `path` as they are (a corrupted snapshot).
void PutFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ColumnarTest, EveryCorruptedByteIsDetected) {
  std::string path = ::testing::TempDir() + "/corrupt.col";
  ASSERT_TRUE(storage::WriteColumnar(HostileRelation(), path).ok());
  // The writer's own file, and a file of raw (u32) column blocks, which
  // the writer no longer emits but the reader still decodes.
  const std::string files[] = {FileBytes(path),
                               FileBytes(GoldenSnapshot("master.raw.col"))};
  for (const std::string& bytes : files) {
    ASSERT_GT(bytes.size(), 44u);
    // Flip one byte at a time: the read must fail with a parse error,
    // never succeed with different data. That covers the header, schema,
    // dictionary, columns (raw padding included) and footer.
    for (size_t off = 0; off < bytes.size(); ++off) {
      std::string mutant = bytes;
      mutant[off] = static_cast<char>(mutant[off] ^ 0x5A);
      PutFile(path, mutant);
      Result<Relation> back = storage::ReadColumnar(path);
      ASSERT_FALSE(back.ok()) << "flip at offset " << off << " undetected";
      EXPECT_EQ(back.status().code(), StatusCode::kParseError) << off;
    }

    // Truncations at any length must fail too, not crash.
    for (size_t len : {0ul, 7ul, 43ul, 44ul, bytes.size() / 2,
                       bytes.size() - 1}) {
      PutFile(path, bytes.substr(0, len));
      EXPECT_FALSE(storage::ReadColumnar(path).ok()) << "len " << len;
    }
  }
}

// tests/golden/snapshot/ holds generation 0 of a `repair-deltas --wal`
// session over the golden fixture (master.csv, input.csv): *.col as the
// writer emits it, *.raw.col with every column a raw block.

/// The fixture relation `which` ("master" or "input") as WriteCsv renders
/// it after a CSV load, the way repair-deltas loads it.
std::string FixtureCsv(const std::string& which) {
  const std::string dir = CERTFIX_GOLDEN_DIR;
  Result<Relation> master =
      ReadCsvFileInferSchema("Master", dir + "/master.csv");
  EXPECT_TRUE(master.ok()) << master.status();
  if (!master.ok() || which == "master") {
    return master.ok() ? ToCsv(*master) : std::string();
  }
  Result<Relation> input = ReadCsvFile(master->schema(), dir + "/input.csv");
  EXPECT_TRUE(input.ok()) << input.status();
  return input.ok() ? ToCsv(*input) : std::string();
}

TEST(ColumnarGoldenTest, SnapshotFilesReadBackToTheFixture) {
  for (const std::string which : {"master", "input"}) {
    for (const std::string suffix : {".col", ".raw.col"}) {
      SCOPED_TRACE(which + suffix);
      Result<Relation> back =
          storage::ReadColumnar(GoldenSnapshot(which + suffix));
      ASSERT_TRUE(back.ok()) << back.status();
      EXPECT_EQ(ToCsv(*back), FixtureCsv(which));
    }
  }
}

TEST(ColumnarGoldenTest, WriterReproducesTheDefaultFile) {
  const std::string path = ::testing::TempDir() + "/rewritten.col";
  for (const std::string which : {"master", "input"}) {
    const std::string want = FileBytes(GoldenSnapshot(which + ".col"));
    for (const std::string suffix : {".col", ".raw.col"}) {
      SCOPED_TRACE(which + suffix);
      Result<Relation> back =
          storage::ReadColumnar(GoldenSnapshot(which + suffix));
      ASSERT_TRUE(back.ok()) << back.status();
      ASSERT_TRUE(storage::WriteColumnar(*back, path).ok());
      EXPECT_EQ(FileBytes(path), want);
    }
  }
}

}  // namespace
}  // namespace certfix

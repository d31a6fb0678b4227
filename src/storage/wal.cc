#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "storage/io_util.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace certfix {
namespace storage {

namespace {

constexpr uint32_t kWalVersion = 1;
constexpr size_t kWalHeaderSize = 16;
/// Frames longer than this are treated as a torn length field, not a
/// record (deltas are rows, not blobs).
constexpr uint32_t kMaxPayload = 1u << 30;

std::string EncodeDelta(const Delta& delta) {
  std::string payload;
  payload.push_back(static_cast<char>(delta.kind));
  PutVarint(&payload, delta.row);
  PutVarint(&payload, delta.fields.size());
  for (const std::string& f : delta.fields) {
    PutVarint(&payload, f.size());
    payload.append(f);
  }
  return payload;
}

Status DecodeDelta(const uint8_t* p, size_t len, Delta* delta,
                   const std::string& path) {
  const uint8_t* end = p + len;
  auto bad = [&path](const std::string& what) {
    return Status::ParseError("wal " + path + ": CRC-valid record failed to "
                              "parse (" + what + ")");
  };
  if (p >= end) return bad("empty payload");
  uint8_t kind = *p++;
  if (kind > static_cast<uint8_t>(DeltaKind::kMasterDelete)) {
    return bad("kind " + std::to_string(kind));
  }
  delta->kind = static_cast<DeltaKind>(kind);
  uint64_t row = 0;
  uint64_t nfields = 0;
  if (!GetVarint(&p, end, &row)) return bad("row varint");
  if (!GetVarint(&p, end, &nfields)) return bad("field count varint");
  if (nfields > len) return bad("field count exceeds payload");
  delta->row = row;
  delta->fields.clear();
  delta->fields.reserve(nfields);
  for (uint64_t i = 0; i < nfields; ++i) {
    uint64_t flen = 0;
    if (!GetVarint(&p, end, &flen)) return bad("field length varint");
    if (flen > static_cast<uint64_t>(end - p)) return bad("field overrun");
    delta->fields.emplace_back(reinterpret_cast<const char*>(p),
                               static_cast<size_t>(flen));
    p += flen;
  }
  if (p != end) return bad("trailing payload bytes");
  return Status::OK();
}

std::string WalHeader() {
  std::string header(kWalMagic, sizeof(kWalMagic));
  PutU32(&header, kWalVersion);
  PutU32(&header, Crc32(header.data(), header.size()));
  return header;
}

Status CheckHeader(const std::string& bytes, const std::string& path) {
  if (bytes.size() < kWalHeaderSize) {
    return Status::ParseError("wal " + path + ": short header");
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::ParseError("wal " + path + ": bad magic");
  }
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  if (ReadU32(p + 12) != Crc32(p, 12)) {
    return Status::ParseError("wal " + path + ": header CRC mismatch");
  }
  if (ReadU32(p + 8) != kWalVersion) {
    return Status::ParseError("wal " + path + ": unsupported version");
  }
  return Status::OK();
}

/// Walks the frames of `bytes`, filling `scan`. The prefix up to
/// tail_offset is intact (length + CRC both check out); everything after
/// is the torn/corrupt tail.
void ScanFrames(const std::string& bytes, WalScan* scan) {
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  uint64_t pos = kWalHeaderSize;
  scan->boundaries.push_back(pos);
  while (pos + 8 <= bytes.size()) {
    uint32_t len = ReadU32(base + pos);
    uint32_t crc = ReadU32(base + pos + 4);
    if (len > kMaxPayload || pos + 8 + len > bytes.size()) break;
    if (Crc32(base + pos + 8, len) != crc) break;
    pos += 8 + len;
    scan->boundaries.push_back(pos);
  }
  scan->tail_offset = pos;
  scan->discarded_bytes = bytes.size() - pos;
}

Status WriteAll(int fd, const char* data, size_t len,
                const std::string& path) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// CSV codec behind the shared DeltaSource interface, owning its stream.
class FileDeltaLogSource : public DeltaSource {
 public:
  FileDeltaLogSource(SchemaPtr schema, SchemaPtr master_schema,
                     const std::string& path)
      : in_(path),
        source_(std::move(schema), std::move(master_schema), in_) {}

  Result<bool> Next(Delta* delta) override { return source_.Next(delta); }

 private:
  std::ifstream in_;
  DeltaLogSource source_;
};

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     Options options) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return Errno("open", path);
  std::string header = WalHeader();
  Status st = WriteAll(fd, header.data(), header.size(), path);
  if (st.ok() && ::fsync(fd) != 0) st = Errno("fsync", path);
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, kWalHeaderSize, options));
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, Options options, uint64_t* valid_records) {
  WalScan scan;
  CERTFIX_ASSIGN_OR_RETURN(scan, ScanWal(path));
  int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return Errno("open", path);
  // Drop the torn tail so the next append starts on a record boundary —
  // otherwise the dead bytes would shadow every future record.
  if (scan.discarded_bytes > 0 &&
      ::ftruncate(fd, static_cast<off_t>(scan.tail_offset)) != 0) {
    ::close(fd);
    return Errno("ftruncate", path);
  }
  if (::lseek(fd, static_cast<off_t>(scan.tail_offset), SEEK_SET) < 0) {
    ::close(fd);
    return Errno("lseek", path);
  }
  if (valid_records != nullptr) *valid_records = scan.boundaries.size() - 1;
  return std::unique_ptr<WalWriter>(
      new WalWriter(fd, scan.tail_offset, options));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const Delta& delta) {
  CERTFIX_SPAN("wal.append");
  telemetry::ScopedLatency latency(CERTFIX_TL_HISTOGRAM("wal.append_ns"));
  std::string payload = EncodeDelta(delta);
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame += payload;
  CERTFIX_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size(), "wal"));
  offset_ += frame.size();
  ++records_;
  CERTFIX_TL_COUNTER("wal.appends")->Increment();
  CERTFIX_TL_COUNTER("wal.append_bytes")->Add(frame.size());
  if (options_.sync_every_append) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (::fsync(fd_) != 0) return Errno("fsync", "wal");
  CERTFIX_TL_COUNTER("wal.fsyncs")->Increment();
  return Status::OK();
}

Result<WalScan> ScanWal(const std::string& path) {
  std::string bytes;
  CERTFIX_ASSIGN_OR_RETURN(bytes, ReadFileBytes(path));
  CERTFIX_RETURN_IF_ERROR(CheckHeader(bytes, path));
  WalScan scan;
  ScanFrames(bytes, &scan);
  return scan;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  std::string bytes;
  CERTFIX_ASSIGN_OR_RETURN(bytes, ReadFileBytes(path));
  CERTFIX_RETURN_IF_ERROR(CheckHeader(bytes, path));
  std::unique_ptr<WalReader> reader(
      new WalReader(std::move(bytes), path));
  WalScan scan;
  ScanFrames(reader->bytes_, &scan);
  reader->pos_ = kWalHeaderSize;
  reader->tail_offset_ = scan.tail_offset;
  reader->discarded_ = scan.discarded_bytes;
  if (reader->discarded_ > 0) {
    CERTFIX_TL_COUNTER("wal.truncated_tails")->Increment();
    CERTFIX_TL_COUNTER("wal.discarded_bytes")->Add(reader->discarded_);
  }
  return reader;
}

Result<bool> WalReader::Next(Delta* delta) {
  if (done_ || pos_ >= tail_offset_) {
    done_ = true;
    return false;
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes_.data());
  uint32_t len = ReadU32(base + pos_);
  CERTFIX_RETURN_IF_ERROR(
      DecodeDelta(base + pos_ + 8, len, delta, path_));
  pos_ += 8 + len;
  ++records_;
  CERTFIX_TL_COUNTER("wal.replayed_records")->Increment();
  return true;
}

Result<std::unique_ptr<DeltaSource>> OpenDeltaLog(SchemaPtr schema,
                                                  SchemaPtr master_schema,
                                                  const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return Status::NotFound("cannot open delta log: " + path);
  char magic[sizeof(kWalMagic)] = {};
  probe.read(magic, sizeof(magic));
  bool is_wal = probe.gcount() == sizeof(magic) &&
                std::memcmp(magic, kWalMagic, sizeof(magic)) == 0;
  probe.close();
  if (is_wal) {
    std::unique_ptr<WalReader> reader;
    CERTFIX_ASSIGN_OR_RETURN(reader, WalReader::Open(path));
    return std::unique_ptr<DeltaSource>(std::move(reader));
  }
  return std::unique_ptr<DeltaSource>(std::make_unique<FileDeltaLogSource>(
      std::move(schema), std::move(master_schema), path));
}

}  // namespace storage
}  // namespace certfix

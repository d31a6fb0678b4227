#include "storage/columnar.h"

#include <cstring>

#include "storage/io_util.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace certfix {
namespace storage {

namespace {

constexpr char kMagic[8] = {'C', 'F', 'X', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 44;  // magic..footer_off (40) + crc (4)
constexpr uint32_t kFlagCompress = 1;

constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

constexpr uint8_t kEncodingRaw = 0;
constexpr uint8_t kEncodingDeltaVarint = 1;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::ParseError("snapshot " + path + ": " + what);
}

struct Section {
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
};

void AppendString(std::string* out, const std::string& s) {
  PutVarint(out, s.size());
  out->append(s);
}

bool ReadString(const uint8_t** p, const uint8_t* end, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint(p, end, &len)) return false;
  if (len > static_cast<uint64_t>(end - *p)) return false;
  s->assign(reinterpret_cast<const char*>(*p), static_cast<size_t>(len));
  *p += len;
  return true;
}

std::string EncodeSchema(const Schema& schema) {
  std::string out;
  AppendString(&out, schema.name());
  for (AttrId a = 0; a < static_cast<AttrId>(schema.num_attrs()); ++a) {
    AppendString(&out, schema.attr_name(a));
    out.push_back(static_cast<char>(schema.attr_type(a)));
  }
  return out;
}

std::string EncodeDict(const ValuePool& pool) {
  std::string out;
  for (ValueId id = 1; id < static_cast<ValueId>(pool.size()); ++id) {
    const Value& v = pool.value(id);
    if (v.is_int()) {
      out.push_back(static_cast<char>(kTagInt));
      PutVarint(&out, ZigzagEncode(v.as_int()));
    } else if (v.is_double()) {
      out.push_back(static_cast<char>(kTagDouble));
      uint64_t bits;
      double d = v.as_double();
      static_assert(sizeof(bits) == sizeof(double), "IEEE754 doubles");
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(&out, bits);
    } else {
      // Interned values are never null (slot 0 is the only null).
      out.push_back(static_cast<char>(kTagString));
      AppendString(&out, v.as_string());
    }
  }
  return out;
}

/// Column block bytes: the delta-varint encoding byte, then one zigzag
/// varint per id, relative to the id before it.
std::string EncodeColumn(const IdColumn& col) {
  std::string out(1, static_cast<char>(kEncodingDeltaVarint));
  int64_t prev = 0;
  for (ValueId id : col) {
    PutVarint(&out, ZigzagEncode(static_cast<int64_t>(id) - prev));
    prev = static_cast<int64_t>(id);
  }
  return out;
}

}  // namespace

Status WriteColumnar(const Relation& rel, const std::string& path) {
  CERTFIX_SPAN("snapshot.write");
  const Schema& schema = *rel.schema();
  const ValuePool& pool = *rel.pool();

  std::string file(kHeaderSize, '\0');
  std::vector<Section> sections;
  auto append_section = [&](const std::string& bytes) {
    Section s;
    s.offset = file.size();
    s.length = bytes.size();
    s.crc = Crc32(bytes.data(), bytes.size());
    file += bytes;
    sections.push_back(s);
  };

  append_section(EncodeSchema(schema));
  append_section(EncodeDict(pool));
  for (AttrId a = 0; a < static_cast<AttrId>(schema.num_attrs()); ++a) {
    append_section(EncodeColumn(rel.Column(a)));
  }

  uint64_t footer_off = file.size();
  std::string footer;
  PutU32(&footer, static_cast<uint32_t>(sections.size()));
  for (const Section& s : sections) {
    PutU64(&footer, s.offset);
    PutU64(&footer, s.length);
    PutU32(&footer, s.crc);
  }
  PutU32(&footer, Crc32(footer.data(), footer.size()));
  file += footer;

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, kVersion);
  PutU32(&header, static_cast<uint32_t>(schema.num_attrs()));
  PutU64(&header, rel.size());
  PutU32(&header, static_cast<uint32_t>(pool.size()));
  PutU32(&header, kFlagCompress);
  PutU64(&header, footer_off);
  PutU32(&header, Crc32(header.data(), header.size()));
  std::memcpy(&file[0], header.data(), kHeaderSize);

  CERTFIX_RETURN_IF_ERROR(WriteFileAtomic(path, file));
  telemetry::Registry::Global()->GetCounter("snapshot.writes")->Increment();
  telemetry::Registry::Global()->GetCounter("snapshot.bytes")
      ->Add(file.size());
  return Status::OK();
}

Result<Relation> ReadColumnar(const std::string& path) {
  CERTFIX_SPAN("snapshot.read");
  CERTFIX_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  const uint8_t* base = reinterpret_cast<const uint8_t*>(bytes.data());
  const size_t file_size = bytes.size();
  if (file_size < kHeaderSize) return Corrupt(path, "short header");
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  if (ReadU32(base + kHeaderSize - 4) != Crc32(base, kHeaderSize - 4)) {
    return Corrupt(path, "header CRC mismatch");
  }
  uint32_t version = ReadU32(base + 8);
  if (version != kVersion) {
    return Corrupt(path, "unsupported version " + std::to_string(version));
  }
  const uint32_t num_attrs = ReadU32(base + 12);
  const uint64_t num_rows = ReadU64(base + 16);
  const uint32_t dict_entries = ReadU32(base + 24);
  const uint64_t footer_off = ReadU64(base + 32);
  if (dict_entries == 0) return Corrupt(path, "empty dictionary");

  // Footer: section table, itself CRC'd.
  const uint64_t section_count = 2 + static_cast<uint64_t>(num_attrs);
  const uint64_t footer_len = 4 + section_count * 20 + 4;
  if (footer_off < kHeaderSize || footer_off + footer_len != file_size) {
    return Corrupt(path, "footer out of bounds");
  }
  const uint8_t* footer = base + footer_off;
  if (ReadU32(footer + footer_len - 4) != Crc32(footer, footer_len - 4)) {
    return Corrupt(path, "footer CRC mismatch");
  }
  if (ReadU32(footer) != section_count) {
    return Corrupt(path, "section count mismatch");
  }
  std::vector<Section> sections(section_count);
  for (uint64_t i = 0; i < section_count; ++i) {
    const uint8_t* e = footer + 4 + i * 20;
    sections[i].offset = ReadU64(e);
    sections[i].length = ReadU64(e + 8);
    sections[i].crc = ReadU32(e + 16);
    if (sections[i].offset < kHeaderSize || sections[i].length > footer_off ||
        sections[i].offset + sections[i].length > footer_off) {
      return Corrupt(path, "section " + std::to_string(i) + " out of bounds");
    }
    const uint8_t* data = base + sections[i].offset;
    if (Crc32(data, sections[i].length) != sections[i].crc) {
      return Corrupt(path, "section " + std::to_string(i) + " CRC mismatch");
    }
  }

  // Schema section.
  const uint8_t* p = base + sections[0].offset;
  const uint8_t* end = p + sections[0].length;
  std::string rel_name;
  if (!ReadString(&p, end, &rel_name)) return Corrupt(path, "schema name");
  std::vector<Attribute> attrs(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    if (!ReadString(&p, end, &attrs[a].name) || p >= end) {
      return Corrupt(path, "schema attribute " + std::to_string(a));
    }
    uint8_t type = *p++;
    if (type > 2) return Corrupt(path, "bad attribute type");
    attrs[a].type = static_cast<DataType>(type);
  }
  if (p != end) return Corrupt(path, "trailing schema bytes");
  SchemaPtr schema = Schema::Make(rel_name, std::move(attrs));

  // Dictionary section: rebuild the pool in id order.
  PoolPtr pool = std::make_shared<ValuePool>();
  PoolDictionaryBuilder builder(pool);
  p = base + sections[1].offset;
  end = p + sections[1].length;
  for (ValueId id = 1; id < dict_entries; ++id) {
    if (p >= end) return Corrupt(path, "truncated dictionary");
    uint8_t tag = *p++;
    Value v;
    if (tag == kTagInt) {
      uint64_t z = 0;
      if (!GetVarint(&p, end, &z)) return Corrupt(path, "dict int varint");
      v = Value::Int(ZigzagDecode(z));
    } else if (tag == kTagDouble) {
      if (end - p < 8) return Corrupt(path, "truncated dict double");
      uint64_t bits = ReadU64(p);
      p += 8;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      v = Value::Double(d);
    } else if (tag == kTagString) {
      std::string s;
      if (!ReadString(&p, end, &s)) return Corrupt(path, "dict string");
      v = Value::Str(std::move(s));
    } else {
      return Corrupt(path, "bad dict tag " + std::to_string(tag));
    }
    CERTFIX_RETURN_IF_ERROR(builder.Append(v, id));
  }
  if (p != end) return Corrupt(path, "trailing dictionary bytes");

  // Column sections. A block holds its encoding byte plus at least one
  // byte per row, which bounds num_rows before anything is reserved.
  std::vector<IdColumn> cols(num_attrs);
  for (uint32_t a = 0; a < num_attrs; ++a) {
    const Section& s = sections[2 + a];
    if (num_rows >= s.length) return Corrupt(path, "short column section");
    const uint8_t* cp = base + s.offset;
    const uint8_t* cend = cp + s.length;
    IdColumn& col = cols[a];
    col.reserve(num_rows);
    uint8_t encoding = *cp++;
    if (encoding == kEncodingRaw) {
      while ((static_cast<uint64_t>(cp - base)) % 4 != 0) {
        if (cp >= cend || *cp != 0) return Corrupt(path, "bad raw padding");
        ++cp;
      }
      if (static_cast<uint64_t>(cend - cp) != num_rows * 4) {
        return Corrupt(path, "raw column size mismatch");
      }
      for (uint64_t i = 0; i < num_rows; ++i, cp += 4) {
        const ValueId id = ReadU32(cp);
        if (id >= dict_entries) {
          return Corrupt(path, "id out of dictionary range");
        }
        col.push_back(id);
      }
    } else if (encoding == kEncodingDeltaVarint) {
      int64_t prev = 0;
      for (uint64_t i = 0; i < num_rows; ++i) {
        uint64_t z = 0;
        if (!GetVarint(&cp, cend, &z)) {
          return Corrupt(path, "truncated column varints");
        }
        int64_t id = prev + ZigzagDecode(z);
        if (id < 0 || id >= static_cast<int64_t>(dict_entries)) {
          return Corrupt(path, "id out of dictionary range");
        }
        col.push_back(static_cast<ValueId>(id));
        prev = id;
      }
      if (cp != cend) return Corrupt(path, "trailing column bytes");
    } else {
      return Corrupt(path, "bad column encoding");
    }
  }
  telemetry::Registry::Global()->GetCounter("snapshot.reads")->Increment();
  return Relation(std::move(schema), std::move(pool), std::move(cols),
                  num_rows);
}

}  // namespace storage
}  // namespace certfix

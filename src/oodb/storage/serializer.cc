#include "oodb/storage/serializer.h"

#include <cstring>

namespace sdms::oodb {

namespace {

// Value wire tags. Stable on-disk format: do not renumber.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagReal = 3;
constexpr uint8_t kTagString = 4;
constexpr uint8_t kTagOid = 5;
constexpr uint8_t kTagList = 6;
constexpr uint8_t kTagDict = 7;

}  // namespace

void Encoder::PutU32(uint32_t v) { PutU64(v); }

void Encoder::PutU64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void Encoder::PutI64(int64_t v) {
  uint64_t zz = (static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63);
  PutU64(zz);
}

void Encoder::PutFixed64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void Encoder::PutString(std::string_view s) {
  PutU64(s.size());
  buf_.append(s.data(), s.size());
}

void Encoder::PutValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      PutU8(kTagNull);
      break;
    case ValueType::kBool:
      PutU8(kTagBool);
      PutU8(v.as_bool() ? 1 : 0);
      break;
    case ValueType::kInt:
      PutU8(kTagInt);
      PutI64(v.as_int());
      break;
    case ValueType::kReal:
      PutU8(kTagReal);
      PutDouble(v.as_real());
      break;
    case ValueType::kString:
      PutU8(kTagString);
      PutString(v.as_string());
      break;
    case ValueType::kOid:
      PutU8(kTagOid);
      PutU64(v.as_oid().raw());
      break;
    case ValueType::kList: {
      PutU8(kTagList);
      const ValueList& l = v.as_list();
      PutU64(l.size());
      for (const Value& e : l) PutValue(e);
      break;
    }
    case ValueType::kDict: {
      PutU8(kTagDict);
      const ValueDict& d = v.as_dict();
      PutU64(d.size());
      for (const auto& [k, e] : d) {
        PutString(k);
        PutValue(e);
      }
      break;
    }
  }
}

void Encoder::PutObject(const DbObject& obj) {
  PutU64(obj.oid().raw());
  PutString(obj.class_name());
  PutU64(obj.attributes().size());
  for (const auto& [k, v] : obj.attributes()) {
    PutString(k);
    PutValue(v);
  }
}

StatusOr<uint8_t> Decoder::GetU8() {
  if (pos_ >= data_.size()) return Status::Corruption("decoder past end");
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> Decoder::GetU32() {
  SDMS_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  if (v > UINT32_MAX) return Status::Corruption("u32 overflow");
  return static_cast<uint32_t>(v);
}

StatusOr<uint64_t> Decoder::GetU64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) return Status::Corruption("truncated varint");
    uint8_t b = static_cast<uint8_t>(data_[pos_++]);
    if (shift >= 64) return Status::Corruption("varint too long");
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

StatusOr<int64_t> Decoder::GetI64() {
  SDMS_ASSIGN_OR_RETURN(uint64_t zz, GetU64());
  return static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
}

StatusOr<uint64_t> Decoder::GetFixed64() {
  if (pos_ + 8 > data_.size()) return Status::Corruption("truncated fixed64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<double> Decoder::GetDouble() {
  if (pos_ + 8 > data_.size()) return Status::Corruption("truncated double");
  SDMS_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> Decoder::GetString() {
  SDMS_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  if (pos_ + n > data_.size()) return Status::Corruption("truncated string");
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

StatusOr<Value> Decoder::GetValue() {
  SDMS_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (tag) {
    case kTagNull:
      return Value();
    case kTagBool: {
      SDMS_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value(b != 0);
    }
    case kTagInt: {
      SDMS_ASSIGN_OR_RETURN(int64_t i, GetI64());
      return Value(i);
    }
    case kTagReal: {
      SDMS_ASSIGN_OR_RETURN(double d, GetDouble());
      return Value(d);
    }
    case kTagString: {
      SDMS_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value(std::move(s));
    }
    case kTagOid: {
      SDMS_ASSIGN_OR_RETURN(uint64_t raw, GetU64());
      return Value(Oid(raw));
    }
    case kTagList: {
      SDMS_ASSIGN_OR_RETURN(uint64_t n, GetU64());
      ValueList l;
      l.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        SDMS_ASSIGN_OR_RETURN(Value e, GetValue());
        l.push_back(std::move(e));
      }
      return Value(std::move(l));
    }
    case kTagDict: {
      SDMS_ASSIGN_OR_RETURN(uint64_t n, GetU64());
      ValueDict d;
      for (uint64_t i = 0; i < n; ++i) {
        SDMS_ASSIGN_OR_RETURN(std::string k, GetString());
        SDMS_ASSIGN_OR_RETURN(Value e, GetValue());
        d.emplace(std::move(k), std::move(e));
      }
      return Value(std::move(d));
    }
    default:
      return Status::Corruption("unknown value tag " + std::to_string(tag));
  }
}

StatusOr<DbObject> Decoder::GetObject() {
  SDMS_ASSIGN_OR_RETURN(uint64_t raw, GetU64());
  SDMS_ASSIGN_OR_RETURN(std::string cls, GetString());
  SDMS_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  DbObject obj(Oid(raw), std::move(cls));
  for (uint64_t i = 0; i < n; ++i) {
    SDMS_ASSIGN_OR_RETURN(std::string k, GetString());
    SDMS_ASSIGN_OR_RETURN(Value v, GetValue());
    obj.Set(k, std::move(v));
  }
  return obj;
}

uint32_t Crc32(std::string_view data) {
  static uint32_t table[256];
  static bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  uint32_t crc = 0xffffffffu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace sdms::oodb

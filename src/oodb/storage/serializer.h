#ifndef SDMS_OODB_STORAGE_SERIALIZER_H_
#define SDMS_OODB_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "oodb/object.h"
#include "oodb/value.h"

namespace sdms::oodb {

/// Append-only binary encoder used by the WAL, snapshots, and the IRS
/// index files. Integers use LEB128 varints; strings are
/// length-prefixed.
class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// Zigzag-encoded signed varint.
  void PutI64(int64_t v);
  /// Fixed 8 bytes little-endian (a varint's width depends on the value).
  void PutFixed64(uint64_t v);
  void PutDouble(double v);
  void PutString(std::string_view s);
  void PutValue(const Value& v);
  void PutObject(const DbObject& obj);

  const std::string& data() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential binary decoder matching Encoder's format. All getters
/// fail with Corruption when the buffer is exhausted or malformed.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  StatusOr<uint8_t> GetU8();
  StatusOr<uint32_t> GetU32();
  StatusOr<uint64_t> GetU64();
  StatusOr<int64_t> GetI64();
  StatusOr<uint64_t> GetFixed64();
  StatusOr<double> GetDouble();
  StatusOr<std::string> GetString();
  StatusOr<Value> GetValue();
  StatusOr<DbObject> GetObject();

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// CRC32 (IEEE polynomial) over `data`; protects WAL records and
/// snapshot files against torn writes.
uint32_t Crc32(std::string_view data);

}  // namespace sdms::oodb

#endif  // SDMS_OODB_STORAGE_SERIALIZER_H_

#ifndef SDMS_COMMON_OID_H_
#define SDMS_COMMON_OID_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sdms {

/// A database object identifier. OIDs are immutable, never reused, and
/// are the join key between the OODBMS and the IRS: every IRS document
/// carries the OID of the database object it represents (Section 4.3 of
/// the paper).
class Oid {
 public:
  /// Constructs the invalid ("null") OID.
  constexpr Oid() : raw_(0) {}

  /// Constructs an OID from its raw 64-bit representation.
  constexpr explicit Oid(uint64_t raw) : raw_(raw) {}

  constexpr uint64_t raw() const { return raw_; }
  constexpr bool valid() const { return raw_ != 0; }

  friend constexpr bool operator==(Oid a, Oid b) { return a.raw_ == b.raw_; }
  friend constexpr bool operator!=(Oid a, Oid b) { return a.raw_ != b.raw_; }
  friend constexpr bool operator<(Oid a, Oid b) { return a.raw_ < b.raw_; }

  /// Renders as "oid:<n>"; used in IRS document metadata and traces.
  std::string ToString() const { return "oid:" + std::to_string(raw_); }

 private:
  uint64_t raw_;
};

/// The invalid OID constant.
inline constexpr Oid kNullOid{};

/// Parses an IRS document key "oid:<n>", where <n> is the whole rest of
/// the key in decimal digits and fits 64 bits. kCorruption otherwise.
inline StatusOr<Oid> ParseOidKey(std::string_view key) {
  constexpr std::string_view kPrefix = "oid:";
  if (key.starts_with(kPrefix)) {
    const char* last = key.data() + key.size();
    uint64_t raw = 0;
    auto [end, ec] = std::from_chars(key.data() + kPrefix.size(), last, raw);
    if (ec == std::errc() && end == last) return Oid(raw);
  }
  return Status::Corruption("malformed OID key: " + std::string(key));
}

}  // namespace sdms

template <>
struct std::hash<sdms::Oid> {
  size_t operator()(const sdms::Oid& oid) const noexcept {
    return std::hash<uint64_t>()(oid.raw());
  }
};

#endif  // SDMS_COMMON_OID_H_

#include "coupling/types.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>

#include "irs/collection.h"

namespace sdms::coupling {

namespace {

bool OidLess(const OidScoreMap::value_type& a,
             const OidScoreMap::value_type& b) {
  return a.first < b.first;
}

bool SameOid(const OidScoreMap::value_type& a,
             const OidScoreMap::value_type& b) {
  return a.first == b.first;
}

}  // namespace

OidScoreMap::OidScoreMap(std::initializer_list<value_type> pairs)
    : pairs_(pairs) {
  std::stable_sort(pairs_.begin(), pairs_.end(), OidLess);
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end(), SameOid),
               pairs_.end());
}

StatusOr<OidScoreMap> OidScoreMap::FromUnsorted(
    std::vector<value_type> pairs) {
  std::sort(pairs.begin(), pairs.end(), OidLess);
  auto dup = std::adjacent_find(pairs.begin(), pairs.end(), SameOid);
  if (dup != pairs.end()) {
    return Status::Corruption("IRS result names " + dup->first.ToString() +
                              " twice");
  }
  return FromSorted(std::move(pairs));
}

OidScoreMap OidScoreMap::FromSorted(std::vector<value_type> pairs) {
  OidScoreMap out;
  out.pairs_ = std::move(pairs);
  return out;
}

OidScoreMap::const_iterator OidScoreMap::find(Oid oid) const {
  auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), oid,
      [](const value_type& p, Oid o) { return p.first < o; });
  return it != pairs_.end() && it->first == oid ? it : pairs_.end();
}

double OidScoreMap::at(Oid oid) const {
  auto it = find(oid);
  if (it == end()) {
    throw std::out_of_range("OidScoreMap::at: " + oid.ToString());
  }
  return it->second;
}

StatusOr<Oid> ParseOidKey(std::string_view key) {
  // Keys are "oid:<n>" (the OID stored as IRS document meta data).
  constexpr std::string_view kPrefix = "oid:";
  if (key.starts_with(kPrefix)) {
    const char* last = key.data() + key.size();
    uint64_t raw = 0;
    auto [end, ec] = std::from_chars(key.data() + kPrefix.size(), last, raw);
    if (ec == std::errc() && end == last) return Oid(raw);
  }
  return Status::Corruption("malformed OID key: " + std::string(key));
}

StatusOr<OidScoreMap> OidScoreMapFromHits(
    std::span<const std::vector<irs::SearchHit>> parts) {
  size_t total = 0;
  for (const auto& hits : parts) total += hits.size();
  std::vector<OidScoreMap::value_type> pairs;
  pairs.reserve(total);
  for (const auto& hits : parts) {
    for (const irs::SearchHit& h : hits) {
      SDMS_ASSIGN_OR_RETURN(Oid oid, ParseOidKey(h.key));
      pairs.emplace_back(oid, h.score);
    }
  }
  return OidScoreMap::FromUnsorted(std::move(pairs));
}

}  // namespace sdms::coupling

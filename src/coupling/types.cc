#include "coupling/types.h"

#include <algorithm>
#include <bit>
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

void OidBitSet::insert(Oid oid) {
  uint64_t raw = oid.raw();
  uint64_t c = raw >> kChunkBits;
  if (c >= chunks_.size()) chunks_.resize(c + 1);
  if (chunks_[c] == nullptr) chunks_[c] = std::make_unique<Chunk>();
  uint64_t& word = chunks_[c]->words[(raw & kChunkMask) / 64];
  uint64_t bit = uint64_t{1} << (raw % 64);
  if ((word & bit) != 0) return;
  word |= bit;
  ++chunks_[c]->count;
  ++size_;
}

void OidBitSet::erase(Oid oid) {
  if (!contains(oid)) return;
  uint64_t raw = oid.raw();
  std::unique_ptr<Chunk>& chunk = chunks_[raw >> kChunkBits];
  chunk->words[(raw & kChunkMask) / 64] &= ~(uint64_t{1} << (raw % 64));
  --size_;
  if (--chunk->count == 0) chunk.reset();
}

uint64_t OidBitSet::NextFrom(uint64_t pos) const {
  for (uint64_t c = pos >> kChunkBits; c < chunks_.size();
       ++c, pos = c << kChunkBits) {
    const Chunk* chunk = chunks_[c].get();
    if (chunk == nullptr) continue;
    size_t w = (pos & kChunkMask) / 64;
    uint64_t word = chunk->words[w] & (~uint64_t{0} << (pos % 64));
    while (word == 0 && ++w < chunk->words.size()) word = chunk->words[w];
    if (word != 0) {
      return (c << kChunkBits) + w * 64 +
             static_cast<uint64_t>(std::countr_zero(word));
    }
  }
  return EndPos();
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

#include "coupling/types.h"

#include <algorithm>
#include <bit>
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

StatusOr<OidScoreMap> MergeShardOidHits(
    std::span<const std::vector<OidScoreMap::value_type>> parts) {
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<OidScoreMap::value_type> pairs;
  pairs.reserve(total);
  std::vector<size_t> next(parts.size(), 0);
  while (pairs.size() < total) {
    // The part whose next pair has the smallest OID; the first such
    // part on a tie, so the repeat surfaces on the following step.
    size_t best = parts.size();
    for (size_t p = 0; p < parts.size(); ++p) {
      if (next[p] == parts[p].size()) continue;
      if (best == parts.size() ||
          parts[p][next[p]].first < parts[best][next[best]].first) {
        best = p;
      }
    }
    const OidScoreMap::value_type& pair = parts[best][next[best]++];
    // Output strictly increasing <=> every part strictly increasing
    // and no OID in two parts.
    if (!pairs.empty() && !(pairs.back().first < pair.first)) {
      if (pairs.back().first == pair.first) {
        return Status::Corruption("IRS result names " +
                                  pair.first.ToString() + " twice");
      }
      return Status::Corruption("shard hits out of OID order at " +
                                pair.first.ToString());
    }
    pairs.push_back(pair);
  }
  return OidScoreMap::FromSorted(std::move(pairs));
}

StatusOr<OidScoreMap> OidScoreMapFromHits(
    std::span<const irs::SearchHit> hits) {
  std::vector<OidScoreMap::value_type> pairs;
  pairs.reserve(hits.size());
  for (const irs::SearchHit& h : hits) {
    SDMS_ASSIGN_OR_RETURN(Oid oid, ParseOidKey(h.key));
    pairs.emplace_back(oid, h.score);
  }
  return OidScoreMap::FromUnsorted(std::move(pairs));
}

}  // namespace sdms::coupling

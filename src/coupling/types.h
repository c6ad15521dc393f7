#ifndef SDMS_COUPLING_TYPES_H_
#define SDMS_COUPLING_TYPES_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/oid.h"
#include "common/status.h"

namespace sdms::irs {
struct SearchHit;
}  // namespace sdms::irs

namespace sdms::coupling {

/// An IRS result mapped back to database objects: the paper's
/// dictionary ||IRSObject --> REAL|| (Section 4.2), held as one
/// contiguous array of (OID, score) pairs sorted by OID. A map is built
/// once and then only read, so the result buffer and every query using
/// a result share it as `std::shared_ptr<const OidScoreMap>`. Iteration
/// runs in OID order; `find` is a binary search.
class OidScoreMap {
 public:
  using value_type = std::pair<Oid, double>;
  using const_iterator = std::vector<value_type>::const_iterator;
  OidScoreMap() = default;
  /// Literal form. As with std::map, a repeated OID keeps its first
  /// pair.
  OidScoreMap(std::initializer_list<value_type> pairs);

  /// Sorts `pairs` by OID. A repeated OID is kCorruption: the IRS
  /// names each document once, so a repeat means corrupt data.
  static StatusOr<OidScoreMap> FromUnsorted(std::vector<value_type> pairs);
  /// Adopts `pairs`, which must already be in strictly increasing OID
  /// order.
  static OidScoreMap FromSorted(std::vector<value_type> pairs);

  const_iterator begin() const { return pairs_.begin(); }
  const_iterator end() const { return pairs_.end(); }
  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  /// The pair for `oid`, or end().
  const_iterator find(Oid oid) const;
  size_t count(Oid oid) const { return find(oid) != end() ? 1 : 0; }
  /// The score of `oid`; throws std::out_of_range when absent, like
  /// std::map::at.
  double at(Oid oid) const;

  friend bool operator==(const OidScoreMap&, const OidScoreMap&) = default;

 private:
  std::vector<value_type> pairs_;
};

/// A set of OIDs held as one bit per raw OID, in chunks of 2^18 OIDs.
/// Membership is two array indexes, which suits the dense OIDs the
/// object store allocates; iteration runs in OID order. A chunk is
/// allocated by its first member and freed with its last, so memory
/// follows the members rather than the largest OID ever inserted. The
/// chunk directory grows to the largest member, so callers bound
/// untrusted OIDs before inserting them.
class OidBitSet {
 public:
  /// Forward iterator over the members, in increasing OID order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Oid;
    using difference_type = std::ptrdiff_t;
    using pointer = const Oid*;
    using reference = Oid;

    const_iterator() = default;
    Oid operator*() const { return Oid(pos_); }
    const_iterator& operator++() {
      pos_ = set_->NextFrom(pos_ + 1);
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    friend class OidBitSet;
    const_iterator(const OidBitSet* set, uint64_t pos) : set_(set), pos_(pos) {}
    const OidBitSet* set_ = nullptr;
    uint64_t pos_ = 0;
  };

  bool contains(Oid oid) const {
    uint64_t raw = oid.raw();
    uint64_t c = raw >> kChunkBits;
    return c < chunks_.size() && chunks_[c] != nullptr &&
           ((chunks_[c]->words[(raw & kChunkMask) / 64] >> (raw % 64)) & 1);
  }
  void insert(Oid oid);
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }
  void erase(Oid oid);
  void clear() {
    chunks_.clear();
    size_ = 0;
  }
  size_t size() const { return size_; }

  const_iterator begin() const { return const_iterator(this, NextFrom(0)); }
  const_iterator end() const { return const_iterator(this, EndPos()); }

 private:
  static constexpr int kChunkBits = 18;
  static constexpr uint64_t kChunkMask = (uint64_t{1} << kChunkBits) - 1;

  struct Chunk {
    std::array<uint64_t, (kChunkMask + 1) / 64> words{};
    size_t count = 0;  // Members in this chunk.
  };

  uint64_t EndPos() const { return uint64_t{chunks_.size()} << kChunkBits; }
  /// The smallest member at or above raw OID `pos`, or EndPos().
  uint64_t NextFrom(uint64_t pos) const;

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

/// Merges per-shard fan-out answers (IrsCollection::SearchShard), each
/// in strictly increasing OID order, into one OidScoreMap in a single
/// linear k-way pass. Shards partition the documents, so an OID that
/// repeats, within a part or across parts, or a part out of OID order
/// is kCorruption, never a wrong map.
StatusOr<OidScoreMap> MergeShardOidHits(
    std::span<const std::vector<OidScoreMap::value_type>> parts);

/// Maps ranked IRS hits (file exchange, whose result file carries text
/// keys) to an OidScoreMap: every key through ParseOidKey, one sort by
/// OID. A repeated OID is kCorruption.
StatusOr<OidScoreMap> OidScoreMapFromHits(
    std::span<const irs::SearchHit> hits);

/// Counters describing coupling behaviour; read by tests and benches.
struct CouplingStats {
  /// Queries actually submitted to the IRS machine.
  uint64_t irs_queries = 0;
  /// findIRSValue served from the result buffer.
  uint64_t buffer_hits = 0;
  /// findIRSValue that had to call the IRS.
  uint64_t buffer_misses = 0;
  /// deriveIRSValue invocations (objects not represented in the IRS).
  uint64_t derive_calls = 0;
  /// Documents (re)indexed in the IRS due to update propagation.
  uint64_t reindex_ops = 0;
  /// Bytes moved across the system boundary in file-exchange mode.
  uint64_t bytes_exchanged = 0;
  /// Result files written/parsed (file-exchange mode).
  uint64_t files_exchanged = 0;
  /// getIRSResult calls answered from the buffer while the IRS was
  /// unavailable (result flagged stale).
  uint64_t stale_serves = 0;
  /// findIRSValue calls that fell back to derivation/missing_value
  /// because the IRS was unavailable.
  uint64_t degraded_reads = 0;
  /// Fan-out searches answered partially: at least one shard failed or
  /// was skipped while the others produced the (degraded) result.
  uint64_t shard_degraded_queries = 0;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_TYPES_H_

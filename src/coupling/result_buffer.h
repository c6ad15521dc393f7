#ifndef SDMS_COUPLING_RESULT_BUFFER_H_
#define SDMS_COUPLING_RESULT_BUFFER_H_

#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/obs/metrics.h"
#include "coupling/types.h"

namespace sdms::coupling {

/// The IRS-result buffer of Section 4.2: a dictionary
/// ||STRING --> ||IRSObject --> REAL|| || keyed by IRS query strings.
/// It serves both intra-query optimization (many objects probed against
/// one query during a single VQL evaluation) and inter-query
/// optimization (the same IRS query across separate VQL queries). The
/// buffer lives as long as its collection and is invalidated when
/// update propagation changes the IRS index.
///
/// An entry has two parts: the IRS result, an immutable OidScoreMap
/// shared with the callers of Get(), and a side table of the values
/// derived for unrepresented objects (Figure 3), which only
/// FindDerived() reads. Keeping them apart means the IRS result is
/// exactly what the IRS returned, and caching a derived value costs one
/// hash insert. The entry also keeps the query's null score.
///
/// Thread safety: every operation is synchronized by one mutex, so
/// concurrent callers — e.g. query evaluation on one thread while
/// update propagation invalidates on another — never corrupt the LRU
/// structures. A handle returned by Get() or Put() stays valid after
/// the entry is replaced, erased, evicted or cleared.
class ResultBuffer {
 public:
  /// `max_bytes` bounds the buffered queries' (approximate) memory
  /// footprint; exceeding it evicts in LRU order. 0 = unbounded. The
  /// most recently stored entry is never evicted, so one oversized
  /// result may transiently exceed `max_bytes` — the budget is a soft
  /// cap, not an allocator limit.
  explicit ResultBuffer(size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// Clear() keeps the global entries gauge honest on teardown.
  ~ResultBuffer() { Clear(); }

  /// Returns the buffered IRS result for `query`, or null. Counts one
  /// hit or miss and refreshes LRU order.
  std::shared_ptr<const OidScoreMap> Get(const std::string& query);

  /// The value derived earlier for `oid` (an object the IRS does not
  /// represent) in the side table of `query`'s entry, or nullopt.
  /// Counts nothing and keeps LRU order: the caller read the entry's
  /// IRS result through a counted Get() first.
  std::optional<double> FindDerived(const std::string& query, Oid oid);

  /// The null score (Collection::NullScore) cached in `query`'s entry,
  /// or nullopt. Counts nothing and keeps LRU order.
  std::optional<double> FindNullScore(const std::string& query);

  /// Caches `query`'s null score in its entry. Does nothing when `query`
  /// is not buffered, so the cache is bounded like the buffer.
  void SetNullScore(const std::string& query, double score);

  /// Books `n` hits at once: lookups a caller answered from a result it
  /// pinned with an earlier Get() (see ReadContext::Flush). Touches no
  /// entry.
  void CountHits(uint64_t n);

  /// Stores (replacing) the result for `query`, with an empty side
  /// table, and returns the stored handle.
  std::shared_ptr<const OidScoreMap> Put(const std::string& query,
                                         OidScoreMap result);

  /// Caches the derived value of `oid` (an object the IRS does not
  /// represent) in the side table of `query`'s entry. Does nothing when
  /// `query` is not buffered: an entry without the IRS result would
  /// answer later lookups as if the IRS had returned nothing.
  void InsertValue(const std::string& query, Oid oid, double score);

  /// Drops everything (called after index-changing update propagation).
  void Clear();

  /// Drops only `query`.
  void Erase(const std::string& query);

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  /// Approximate bytes held (see ApproxEntryBytes).
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  /// The accounting model of the byte budget: query string, 16 bytes
  /// per IRS pair, one hash node per derived value, and the fixed
  /// bookkeeping of an entry, in rough allocator terms.
  static size_t ApproxEntryBytes(const std::string& query,
                                 const OidScoreMap& result,
                                 size_t derived = 0) {
    return query.size() + result.size() * kBytesPerScore +
           derived * kBytesPerDerived + kEntryOverhead;
  }

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

 private:
  /// One (Oid, double) pair of the contiguous IRS result.
  static constexpr size_t kBytesPerScore = sizeof(OidScoreMap::value_type);
  /// One side-table node (next pointer + pair, rounded up by the
  /// allocator) plus its share of the bucket array.
  static constexpr size_t kBytesPerDerived = 40;
  /// Fixed cost per buffered query: hash node with the entry, LRU
  /// node, and the shared result's control block.
  static constexpr size_t kEntryOverhead = 256;

  struct Entry {
    std::shared_ptr<const OidScoreMap> result;
    /// Derived values of objects the IRS does not represent.
    std::unordered_map<Oid, double> derived;
    std::optional<double> null_score;
    std::list<std::string>::iterator lru_it;
    /// Cached ApproxEntryBytes of this entry (kept in sync by every
    /// mutation so bytes_ stays an O(1) aggregate).
    size_t bytes = 0;
  };

  /// Moves `e` to the MRU end of the LRU list.
  void Touch(Entry& e);
  /// Evicts LRU entries (never the MRU head) while over the budget.
  void EnforceBudgetLocked();

  mutable std::mutex mu_;
  size_t max_bytes_;
  size_t bytes_ = 0;
  std::unordered_map<std::string, Entry> entries_;
  /// Most-recent first.
  std::list<std::string> lru_;
  /// Per-instance counters; every increment is mirrored into the
  /// process-wide `coupling.result_buffer.*` registry metrics.
  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace sdms::coupling

#endif  // SDMS_COUPLING_RESULT_BUFFER_H_

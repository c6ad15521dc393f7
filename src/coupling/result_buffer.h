#ifndef SDMS_COUPLING_RESULT_BUFFER_H_
#define SDMS_COUPLING_RESULT_BUFFER_H_

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/obs/metrics.h"
#include "common/status.h"
#include "coupling/types.h"

namespace sdms::coupling {

/// The persistent IRS-result buffer of Section 4.2: a dictionary
/// ||STRING --> ||IRSObject --> REAL|| || keyed by IRS query strings.
/// It serves both intra-query optimization (many objects probed against
/// one query during a single VQL evaluation) and inter-query
/// optimization (the same IRS query across separate VQL queries). The
/// buffer is invalidated when update propagation changes the IRS index.
///
/// Thread safety: all operations (Get/Put/InsertValue/Clear/Erase/
/// Serialize/Restore/size) are internally synchronized by a single
/// mutex, so concurrent callers — e.g. query evaluation on one thread
/// while update propagation invalidates on another — never corrupt the
/// LRU structures. The pointer returned by Get() aliases buffer-owned
/// storage and is only guaranteed valid until the next mutating call
/// (Put/InsertValue/Clear/Erase/Restore) on this buffer; callers that
/// hold results across mutations must copy the map.
class ResultBuffer {
 public:
  /// `capacity` bounds the number of buffered queries and `max_bytes`
  /// their (approximate) memory footprint; exceeding either evicts in
  /// LRU order. 0 = unbounded. The most recently stored entry is never
  /// evicted, so one oversized result may transiently exceed
  /// `max_bytes` — the budget is a soft cap, not an allocator limit.
  explicit ResultBuffer(size_t capacity = 0, size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  /// Clear() keeps the global entries gauge honest on teardown.
  ~ResultBuffer() { Clear(); }

  /// Returns the buffered result for `query`, or nullptr. Refreshes
  /// LRU order.
  const OidScoreMap* Get(const std::string& query);

  /// Stores (replacing) the result for `query`.
  void Put(const std::string& query, OidScoreMap result);

  /// Adds one (object, value) pair into the buffered result of `query`
  /// (used to cache derived IRS values per Figure 3); creates the
  /// entry when absent.
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

  /// The accounting model of the byte budget: query string + map nodes
  /// + LRU/hash bookkeeping, in rough allocator terms.
  static size_t ApproxEntryBytes(const std::string& query,
                                 const OidScoreMap& result) {
    return query.size() + result.size() * kBytesPerScore + kEntryOverhead;
  }

  uint64_t hits() const { return hits_.value(); }
  uint64_t misses() const { return misses_.value(); }
  uint64_t evictions() const { return evictions_.value(); }

  /// Serializes the buffer (persistence across sessions — the paper
  /// buffers results "persistently").
  std::string Serialize() const;
  Status Restore(std::string_view data);

 private:
  /// Rough cost of one (Oid, double) map node incl. allocator overhead.
  static constexpr size_t kBytesPerScore = 64;
  /// Rough fixed cost per buffered query (hash node + LRU node).
  static constexpr size_t kEntryOverhead = 96;

  struct Entry {
    OidScoreMap result;
    std::list<std::string>::iterator lru_it;
    /// Cached ApproxEntryBytes of this entry (kept in sync by every
    /// mutation so bytes_ stays an O(1) aggregate).
    size_t bytes = 0;
  };

  /// Moves `e` to the MRU end of the LRU list.
  void Touch(Entry& e);
  /// Lock-free bodies shared by the public methods (Restore composes
  /// them under one critical section).
  void PutLocked(const std::string& query, OidScoreMap result);
  void ClearLocked();
  /// Evicts LRU entries (never the MRU head) while over either budget.
  void EnforceBudgetLocked();

  mutable std::mutex mu_;
  size_t capacity_;
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

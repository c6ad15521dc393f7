#ifndef SDMS_COMMON_OBS_STATS_H_
#define SDMS_COMMON_OBS_STATS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"

namespace sdms::obs {

/// Compact latency summary used for the per-strategy histograms:
/// power-of-two microsecond buckets, trivially serializable (unlike
/// obs::Histogram, whose atomics don't persist).
struct LatencyStat {
  static constexpr size_t kBuckets = 32;  // 2^31 us ~ 36 min, plenty
  uint64_t count = 0;
  uint64_t sum_us = 0;
  uint64_t min_us = 0;
  uint64_t max_us = 0;
  uint64_t buckets[kBuckets] = {};

  void Record(uint64_t micros);
  /// Estimated value at percentile `p` in [0, 100] (upper bucket bound
  /// interpolation; 0 when empty).
  double Percentile(double p) const;
  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum_us) /
                                  static_cast<double>(count);
  }
};

/// Process-wide statistics service — the data layer the ROADMAP's
/// cost-based optimizer needs. Maintains:
///   - per-term document-frequency snapshots per collection (recorded
///     from the inverted index whenever a query's terms are searched),
///   - per-collection document counts and per-class extent
///     cardinalities,
///   - result-buffer hit-rate EWMAs per collection,
///   - per-strategy latency histograms keyed by query shape
///     (e.g. "b1.c1" = one binding, one content conjunct).
/// Persisted to a stats file on checkpoint (Coupling::PersistIrs) and
/// reloaded at startup, so the optimizer starts warm after a restart.
class StatisticsService {
 public:
  static StatisticsService& Instance();

  // --- Term / collection statistics ---------------------------------------

  /// Snapshot of term `term`'s document frequency in `collection`
  /// (later snapshots overwrite — the index is ground truth).
  void RecordTermDf(const std::string& collection, const std::string& term,
                    uint64_t df);
  std::optional<uint64_t> TermDf(const std::string& collection,
                                 const std::string& term) const;
  /// Number of term-DF snapshots held for `collection`.
  size_t TermCount(const std::string& collection) const;

  void RecordCollectionDocCount(const std::string& collection, uint64_t docs);
  uint64_t CollectionDocCount(const std::string& collection) const;

  void RecordExtentCardinality(const std::string& class_name, uint64_t size);
  uint64_t ExtentCardinality(const std::string& class_name) const;

  // --- Result-buffer hit rate ---------------------------------------------

  /// Folds one lookup into the collection's hit-rate EWMA (alpha 0.05;
  /// the first observation seeds the average).
  void RecordBufferLookup(const std::string& collection, bool hit);
  /// Folds `n` hits at once, equal to `n` RecordBufferLookup(hit) calls
  /// (closed form: rate' = 1 - (1 - alpha)^n * (1 - rate)).
  void RecordBufferLookups(const std::string& collection, uint64_t n);
  /// EWMA hit rate in [0, 1]; negative when no lookup was recorded.
  double BufferHitRate(const std::string& collection) const;

  // --- Postings buffer-pool hit rate ---------------------------------------

  /// Folds one buffer-pool page fetch into the collection's pool
  /// hit-rate EWMA (same smoothing as the result buffer). This is the
  /// I/O-cost signal the cost-based optimizer prices IRS access with:
  /// a cold pool means a content conjunct costs real page reads.
  void RecordPoolLookup(const std::string& collection, bool hit);
  /// EWMA pool hit rate in [0, 1]; negative when no fetch was recorded.
  double PoolHitRate(const std::string& collection) const;

  // --- Strategy latencies --------------------------------------------------

  /// Records one mixed-query run: `shape` describes the query (binding
  /// and content-conjunct counts), `strategy` the evaluation strategy.
  void RecordStrategyLatency(const std::string& shape,
                             const std::string& strategy, uint64_t micros);
  /// Latency summary for (shape, strategy); nullopt when unseen.
  std::optional<LatencyStat> StrategyLatency(const std::string& shape,
                                             const std::string& strategy) const;

  // --- Export / persistence ------------------------------------------------

  /// Human-readable dump (the shell's `.stats queries` view).
  std::string DumpText() const;
  /// Machine-readable JSON object.
  std::string DumpJson() const;

  /// Persists every statistic to `path` (atomic write, line format).
  Status SaveToFile(const std::string& path) const;
  /// Merges a previously saved file into the live state (DF snapshots
  /// and cardinalities overwrite; EWMAs and latency buckets seed empty
  /// entries only, so live observations win).
  Status LoadFromFile(const std::string& path);

  void ResetForTest();

 private:
  StatisticsService() = default;

  struct BufferEwma {
    double rate = -1.0;
    uint64_t lookups = 0;
  };

  mutable std::mutex mu_;
  /// collection -> term -> df.
  std::map<std::string, std::map<std::string, uint64_t>> term_df_;
  std::map<std::string, uint64_t> collection_docs_;
  std::map<std::string, uint64_t> extent_cardinality_;
  std::map<std::string, BufferEwma> buffer_hit_rate_;
  std::map<std::string, BufferEwma> pool_hit_rate_;
  /// "shape|strategy" -> latency summary.
  std::map<std::string, LatencyStat> strategy_latency_;
};

}  // namespace sdms::obs

#endif  // SDMS_COMMON_OBS_STATS_H_

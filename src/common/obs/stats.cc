#include "common/obs/stats.h"

#include <cmath>
#include <sstream>

#include "common/file_util.h"
#include "common/string_util.h"

namespace sdms::obs {

namespace {

/// EWMA smoothing for the buffer hit rate: slow enough to ride out a
/// cold start, fast enough to track a workload shift within ~50 lookups.
constexpr double kEwmaAlpha = 0.05;

size_t BucketOf(uint64_t micros) {
  size_t b = 0;
  while (b + 1 < LatencyStat::kBuckets && (1ULL << b) <= micros) ++b;
  return b;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

void LatencyStat::Record(uint64_t micros) {
  if (count == 0 || micros < min_us) min_us = micros;
  if (micros > max_us) max_us = micros;
  ++count;
  sum_us += micros;
  ++buckets[BucketOf(micros)];
}

double LatencyStat::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p >= 100.0) return static_cast<double>(max_us);
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      // Upper bound of bucket b (bucket 0 covers [0, 1]).
      return static_cast<double>(1ULL << b);
    }
  }
  return static_cast<double>(max_us);
}

StatisticsService& StatisticsService::Instance() {
  static StatisticsService* service = new StatisticsService();
  return *service;
}

void StatisticsService::RecordTermDf(const std::string& collection,
                                     const std::string& term, uint64_t df) {
  std::lock_guard<std::mutex> lock(mu_);
  term_df_[collection][term] = df;
}

std::optional<uint64_t> StatisticsService::TermDf(
    const std::string& collection, const std::string& term) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto coll = term_df_.find(collection);
  if (coll == term_df_.end()) return std::nullopt;
  auto it = coll->second.find(term);
  if (it == coll->second.end()) return std::nullopt;
  return it->second;
}

size_t StatisticsService::TermCount(const std::string& collection) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto coll = term_df_.find(collection);
  return coll == term_df_.end() ? 0 : coll->second.size();
}

void StatisticsService::RecordCollectionDocCount(const std::string& collection,
                                                 uint64_t docs) {
  std::lock_guard<std::mutex> lock(mu_);
  collection_docs_[collection] = docs;
}

uint64_t StatisticsService::CollectionDocCount(
    const std::string& collection) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = collection_docs_.find(collection);
  return it == collection_docs_.end() ? 0 : it->second;
}

void StatisticsService::RecordExtentCardinality(const std::string& class_name,
                                                uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  extent_cardinality_[class_name] = size;
}

uint64_t StatisticsService::ExtentCardinality(
    const std::string& class_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = extent_cardinality_.find(class_name);
  return it == extent_cardinality_.end() ? 0 : it->second;
}

void StatisticsService::RecordBufferLookup(const std::string& collection,
                                           bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  BufferEwma& e = buffer_hit_rate_[collection];
  double sample = hit ? 1.0 : 0.0;
  e.rate = e.lookups == 0 ? sample
                          : (1.0 - kEwmaAlpha) * e.rate + kEwmaAlpha * sample;
  ++e.lookups;
}

void StatisticsService::RecordBufferLookups(const std::string& collection,
                                            uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  BufferEwma& e = buffer_hit_rate_[collection];
  // A first observation seeds the average; each hit after it moves the
  // miss share (1 - rate) by a factor (1 - alpha).
  const uint64_t folded = e.lookups == 0 ? n - 1 : n;
  const double miss_share = e.lookups == 0 ? 0.0 : 1.0 - e.rate;
  e.rate = 1.0 - std::pow(1.0 - kEwmaAlpha, static_cast<double>(folded)) *
                     miss_share;
  e.lookups += n;
}

double StatisticsService::BufferHitRate(const std::string& collection) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = buffer_hit_rate_.find(collection);
  return it == buffer_hit_rate_.end() ? -1.0 : it->second.rate;
}

void StatisticsService::RecordPoolLookup(const std::string& collection,
                                         bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  BufferEwma& e = pool_hit_rate_[collection];
  double sample = hit ? 1.0 : 0.0;
  e.rate = e.lookups == 0 ? sample
                          : (1.0 - kEwmaAlpha) * e.rate + kEwmaAlpha * sample;
  ++e.lookups;
}

double StatisticsService::PoolHitRate(const std::string& collection) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pool_hit_rate_.find(collection);
  return it == pool_hit_rate_.end() ? -1.0 : it->second.rate;
}

void StatisticsService::RecordStrategyLatency(const std::string& shape,
                                              const std::string& strategy,
                                              uint64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  strategy_latency_[shape + "|" + strategy].Record(micros);
}

std::optional<LatencyStat> StatisticsService::StrategyLatency(
    const std::string& shape, const std::string& strategy) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = strategy_latency_.find(shape + "|" + strategy);
  if (it == strategy_latency_.end()) return std::nullopt;
  return it->second;
}

std::string StatisticsService::DumpText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "query statistics\n";
  out += "  collections:\n";
  for (const auto& [coll, docs] : collection_docs_) {
    auto df = term_df_.find(coll);
    size_t terms = df == term_df_.end() ? 0 : df->second.size();
    auto hr = buffer_hit_rate_.find(coll);
    std::string rate =
        hr == buffer_hit_rate_.end() || hr->second.rate < 0.0
            ? "n/a"
            : StrFormat("%.3f (%llu lookups)", hr->second.rate,
                        static_cast<unsigned long long>(hr->second.lookups));
    auto pr = pool_hit_rate_.find(coll);
    std::string pool_rate =
        pr == pool_hit_rate_.end() || pr->second.rate < 0.0
            ? "n/a"
            : StrFormat("%.3f (%llu fetches)", pr->second.rate,
                        static_cast<unsigned long long>(pr->second.lookups));
    out += StrFormat(
        "    %-16s docs=%llu  df snapshots=%zu  buffer hit rate=%s  "
        "pool hit rate=%s\n",
        coll.c_str(), static_cast<unsigned long long>(docs), terms,
        rate.c_str(), pool_rate.c_str());
  }
  out += "  extents:\n";
  for (const auto& [cls, n] : extent_cardinality_) {
    out += StrFormat("    %-16s %llu objects\n", cls.c_str(),
                     static_cast<unsigned long long>(n));
  }
  out += "  strategy latencies (shape|strategy):\n";
  for (const auto& [key, stat] : strategy_latency_) {
    out += StrFormat(
        "    %-28s n=%llu  mean=%.0f us  p50=%.0f us  p99=%.0f us\n",
        key.c_str(), static_cast<unsigned long long>(stat.count), stat.mean(),
        stat.Percentile(50), stat.Percentile(99));
  }
  return out;
}

std::string StatisticsService::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"collections\":{";
  bool first = true;
  for (const auto& [coll, terms] : term_df_) {
    if (!first) out += ",";
    first = false;
    uint64_t docs = 0;
    if (auto it = collection_docs_.find(coll); it != collection_docs_.end()) {
      docs = it->second;
    }
    double rate = -1.0;
    uint64_t lookups = 0;
    if (auto it = buffer_hit_rate_.find(coll); it != buffer_hit_rate_.end()) {
      rate = it->second.rate;
      lookups = it->second.lookups;
    }
    double pool_rate = -1.0;
    uint64_t pool_lookups = 0;
    if (auto it = pool_hit_rate_.find(coll); it != pool_hit_rate_.end()) {
      pool_rate = it->second.rate;
      pool_lookups = it->second.lookups;
    }
    out += StrFormat(
        "\"%s\":{\"doc_count\":%llu,\"buffer_hit_rate\":%.6f,"
        "\"buffer_lookups\":%llu,\"pool_hit_rate\":%.6f,"
        "\"pool_lookups\":%llu,\"term_df\":{",
        JsonEscape(coll).c_str(), static_cast<unsigned long long>(docs), rate,
        static_cast<unsigned long long>(lookups), pool_rate,
        static_cast<unsigned long long>(pool_lookups));
    bool tfirst = true;
    for (const auto& [term, df] : terms) {
      if (!tfirst) out += ",";
      tfirst = false;
      out += StrFormat("\"%s\":%llu", JsonEscape(term).c_str(),
                       static_cast<unsigned long long>(df));
    }
    out += "}}";
  }
  // Collections with doc counts or hit rates but no DF snapshots yet.
  for (const auto& [coll, docs] : collection_docs_) {
    if (term_df_.count(coll) > 0) continue;
    if (!first) out += ",";
    first = false;
    double rate = -1.0;
    uint64_t lookups = 0;
    if (auto it = buffer_hit_rate_.find(coll); it != buffer_hit_rate_.end()) {
      rate = it->second.rate;
      lookups = it->second.lookups;
    }
    double pool_rate = -1.0;
    uint64_t pool_lookups = 0;
    if (auto it = pool_hit_rate_.find(coll); it != pool_hit_rate_.end()) {
      pool_rate = it->second.rate;
      pool_lookups = it->second.lookups;
    }
    out += StrFormat(
        "\"%s\":{\"doc_count\":%llu,\"buffer_hit_rate\":%.6f,"
        "\"buffer_lookups\":%llu,\"pool_hit_rate\":%.6f,"
        "\"pool_lookups\":%llu,\"term_df\":{}}",
        JsonEscape(coll).c_str(), static_cast<unsigned long long>(docs), rate,
        static_cast<unsigned long long>(lookups), pool_rate,
        static_cast<unsigned long long>(pool_lookups));
  }
  out += "},\"extents\":{";
  first = true;
  for (const auto& [cls, n] : extent_cardinality_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("\"%s\":%llu", JsonEscape(cls).c_str(),
                     static_cast<unsigned long long>(n));
  }
  out += "},\"strategy_latency\":{";
  first = true;
  for (const auto& [key, stat] : strategy_latency_) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\"%s\":{\"count\":%llu,\"mean_us\":%.1f,\"p50_us\":%.0f,"
        "\"p99_us\":%.0f,\"max_us\":%llu}",
        JsonEscape(key).c_str(), static_cast<unsigned long long>(stat.count),
        stat.mean(), stat.Percentile(50), stat.Percentile(99),
        static_cast<unsigned long long>(stat.max_us));
  }
  out += "}}";
  return out;
}

Status StatisticsService::SaveToFile(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Line format, one fact per line, whitespace-delimited. Terms pass
  // through the analyzer first (no spaces), collection and class names
  // are identifiers — so plain token splitting round-trips.
  std::string out = "sdms_stats v1\n";
  for (const auto& [coll, terms] : term_df_) {
    for (const auto& [term, df] : terms) {
      out += StrFormat("df %s %s %llu\n", coll.c_str(), term.c_str(),
                       static_cast<unsigned long long>(df));
    }
  }
  for (const auto& [coll, docs] : collection_docs_) {
    out += StrFormat("docs %s %llu\n", coll.c_str(),
                     static_cast<unsigned long long>(docs));
  }
  for (const auto& [cls, n] : extent_cardinality_) {
    out += StrFormat("extent %s %llu\n", cls.c_str(),
                     static_cast<unsigned long long>(n));
  }
  for (const auto& [coll, e] : buffer_hit_rate_) {
    out += StrFormat("buffer %s %.9f %llu\n", coll.c_str(), e.rate,
                     static_cast<unsigned long long>(e.lookups));
  }
  for (const auto& [coll, e] : pool_hit_rate_) {
    out += StrFormat("pool %s %.9f %llu\n", coll.c_str(), e.rate,
                     static_cast<unsigned long long>(e.lookups));
  }
  for (const auto& [key, stat] : strategy_latency_) {
    out += StrFormat("latency %s %llu %llu %llu %llu", key.c_str(),
                     static_cast<unsigned long long>(stat.count),
                     static_cast<unsigned long long>(stat.sum_us),
                     static_cast<unsigned long long>(stat.min_us),
                     static_cast<unsigned long long>(stat.max_us));
    for (size_t b = 0; b < LatencyStat::kBuckets; ++b) {
      out += StrFormat(" %llu",
                       static_cast<unsigned long long>(stat.buckets[b]));
    }
    out += "\n";
  }
  return WriteFileAtomic(path, out);
}

Status StatisticsService::LoadFromFile(const std::string& path) {
  SDMS_ASSIGN_OR_RETURN(std::string data, ReadFile(path));
  std::istringstream in(data);
  std::string header, version;
  in >> header >> version;
  if (header != "sdms_stats" || version != "v1") {
    return Status::Corruption("unrecognized stats file header in " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string kind;
  while (in >> kind) {
    if (kind == "df") {
      std::string coll, term;
      uint64_t df = 0;
      if (!(in >> coll >> term >> df)) break;
      term_df_[coll][term] = df;
    } else if (kind == "docs") {
      std::string coll;
      uint64_t docs = 0;
      if (!(in >> coll >> docs)) break;
      collection_docs_[coll] = docs;
    } else if (kind == "extent") {
      std::string cls;
      uint64_t n = 0;
      if (!(in >> cls >> n)) break;
      extent_cardinality_[cls] = n;
    } else if (kind == "buffer") {
      std::string coll;
      double rate = -1.0;
      uint64_t lookups = 0;
      if (!(in >> coll >> rate >> lookups)) break;
      // Seed only: live observations beat restored smoothing state.
      BufferEwma& e = buffer_hit_rate_[coll];
      if (e.lookups == 0) {
        e.rate = rate;
        e.lookups = lookups;
      }
    } else if (kind == "pool") {
      std::string coll;
      double rate = -1.0;
      uint64_t lookups = 0;
      if (!(in >> coll >> rate >> lookups)) break;
      BufferEwma& e = pool_hit_rate_[coll];
      if (e.lookups == 0) {
        e.rate = rate;
        e.lookups = lookups;
      }
    } else if (kind == "latency") {
      std::string key;
      LatencyStat stat;
      if (!(in >> key >> stat.count >> stat.sum_us >> stat.min_us >>
            stat.max_us)) {
        break;
      }
      for (size_t b = 0; b < LatencyStat::kBuckets; ++b) {
        if (!(in >> stat.buckets[b])) break;
      }
      LatencyStat& live = strategy_latency_[key];
      if (live.count == 0) live = stat;
    } else {
      // Unknown record from a newer writer: skip the rest of the line.
      std::string rest;
      std::getline(in, rest);
    }
  }
  return Status::OK();
}

void StatisticsService::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  term_df_.clear();
  collection_docs_.clear();
  extent_cardinality_.clear();
  buffer_hit_rate_.clear();
  pool_hit_rate_.clear();
  strategy_latency_.clear();
}

}  // namespace sdms::obs

#include "coupling/result_buffer.h"

namespace sdms::coupling {

namespace {

// Process-wide aggregates over every buffer instance (each Collection
// owns one); the per-instance counters back the hits()/misses()
// accessors that tests and benches read per collection.
obs::Counter& GlobalHits() {
  static obs::Counter& c = obs::GetCounter("coupling.result_buffer.hits");
  return c;
}

obs::Counter& GlobalMisses() {
  static obs::Counter& c = obs::GetCounter("coupling.result_buffer.misses");
  return c;
}

obs::Counter& GlobalEvictions() {
  static obs::Counter& c = obs::GetCounter("coupling.result_buffer.evictions");
  return c;
}

obs::Gauge& GlobalEntries() {
  static obs::Gauge& g = obs::GetGauge("coupling.result_buffer.entries");
  return g;
}

obs::Gauge& GlobalBytes() {
  static obs::Gauge& g = obs::GetGauge("coupling.result_buffer.bytes");
  return g;
}

}  // namespace

std::shared_ptr<const OidScoreMap> ResultBuffer::Get(const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it == entries_.end()) {
    misses_.Increment();
    GlobalMisses().Increment();
    return nullptr;
  }
  hits_.Increment();
  GlobalHits().Increment();
  Touch(it->second);
  return it->second.result;
}

void ResultBuffer::CountHits(uint64_t n) {
  hits_.Add(n);
  GlobalHits().Add(n);
}

std::optional<double> ResultBuffer::FindDerived(const std::string& query,
                                                Oid oid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it == entries_.end()) return std::nullopt;
  auto d = it->second.derived.find(oid);
  if (d == it->second.derived.end()) return std::nullopt;
  return d->second;
}

std::optional<double> ResultBuffer::FindNullScore(const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it == entries_.end()) return std::nullopt;
  return it->second.null_score;
}

void ResultBuffer::SetNullScore(const std::string& query, double score) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it != entries_.end()) it->second.null_score = score;
}

std::shared_ptr<const OidScoreMap> ResultBuffer::Put(const std::string& query,
                                                     OidScoreMap result) {
  const size_t new_bytes = ApproxEntryBytes(query, result);
  auto stored = std::make_shared<const OidScoreMap>(std::move(result));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    bytes_ += new_bytes;
    GlobalBytes().Add(static_cast<int64_t>(new_bytes) -
                      static_cast<int64_t>(it->second.bytes));
    it->second.result = stored;
    it->second.derived.clear();
    it->second.bytes = new_bytes;
    Touch(it->second);
    EnforceBudgetLocked();
    return stored;
  }
  lru_.push_front(query);
  Entry e;
  e.result = stored;
  e.lru_it = lru_.begin();
  e.bytes = new_bytes;
  entries_.emplace(query, std::move(e));
  bytes_ += new_bytes;
  GlobalEntries().Add(1);
  GlobalBytes().Add(static_cast<int64_t>(new_bytes));
  EnforceBudgetLocked();
  return stored;
}

void ResultBuffer::EnforceBudgetLocked() {
  // The MRU head (the entry just stored/refreshed) is never evicted:
  // shedding what the current query needs would only force a re-fetch.
  while (entries_.size() > 1 && max_bytes_ > 0 && bytes_ > max_bytes_) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    GlobalBytes().Add(-static_cast<int64_t>(it->second.bytes));
    entries_.erase(it);
    lru_.pop_back();
    evictions_.Increment();
    GlobalEvictions().Increment();
    GlobalEntries().Add(-1);
  }
}

void ResultBuffer::InsertValue(const std::string& query, Oid oid,
                               double score) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it == entries_.end()) return;
  if (it->second.derived.insert_or_assign(oid, score).second) {
    it->second.bytes += kBytesPerDerived;
    bytes_ += kBytesPerDerived;
    GlobalBytes().Add(static_cast<int64_t>(kBytesPerDerived));
    EnforceBudgetLocked();
  }
}

void ResultBuffer::Touch(Entry& e) {
  // Relinks the node in place: no allocation, and e.lru_it stays valid.
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

void ResultBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  GlobalEntries().Add(-static_cast<int64_t>(entries_.size()));
  GlobalBytes().Add(-static_cast<int64_t>(bytes_));
  bytes_ = 0;
  entries_.clear();
  lru_.clear();
}

void ResultBuffer::Erase(const std::string& query) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(query);
  if (it == entries_.end()) return;
  bytes_ -= it->second.bytes;
  GlobalBytes().Add(-static_cast<int64_t>(it->second.bytes));
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  GlobalEntries().Add(-1);
}

}  // namespace sdms::coupling

#include "coupling/result_buffer.h"

#include "oodb/storage/serializer.h"

namespace sdms::coupling {

using oodb::Decoder;
using oodb::Encoder;

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

const OidScoreMap* ResultBuffer::Get(const std::string& query) {
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
  return &it->second.result;
}

void ResultBuffer::Put(const std::string& query, OidScoreMap result) {
  std::lock_guard<std::mutex> lock(mu_);
  PutLocked(query, std::move(result));
}

void ResultBuffer::PutLocked(const std::string& query, OidScoreMap result) {
  size_t new_bytes = ApproxEntryBytes(query, result);
  auto it = entries_.find(query);
  if (it != entries_.end()) {
    bytes_ -= it->second.bytes;
    bytes_ += new_bytes;
    GlobalBytes().Add(static_cast<int64_t>(new_bytes) -
                      static_cast<int64_t>(it->second.bytes));
    it->second.result = std::move(result);
    it->second.bytes = new_bytes;
    Touch(it->second);
    EnforceBudgetLocked();
    return;
  }
  lru_.push_front(query);
  Entry e;
  e.result = std::move(result);
  e.lru_it = lru_.begin();
  e.bytes = new_bytes;
  entries_.emplace(query, std::move(e));
  bytes_ += new_bytes;
  GlobalEntries().Add(1);
  GlobalBytes().Add(static_cast<int64_t>(new_bytes));
  EnforceBudgetLocked();
}

void ResultBuffer::EnforceBudgetLocked() {
  // The MRU head (the entry just stored/refreshed) is never evicted:
  // shedding what the current query needs would only force a re-fetch.
  while (entries_.size() > 1 &&
         ((capacity_ > 0 && entries_.size() > capacity_) ||
          (max_bytes_ > 0 && bytes_ > max_bytes_))) {
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
  if (it == entries_.end()) {
    PutLocked(query, OidScoreMap{{oid, score}});
    return;
  }
  size_t before = it->second.result.size();
  it->second.result[oid] = score;
  if (it->second.result.size() != before) {
    it->second.bytes += kBytesPerScore;
    bytes_ += kBytesPerScore;
    GlobalBytes().Add(static_cast<int64_t>(kBytesPerScore));
    EnforceBudgetLocked();
  }
}

void ResultBuffer::Touch(Entry& e) {
  // Relinks the node in place: no allocation, and e.lru_it stays valid.
  lru_.splice(lru_.begin(), lru_, e.lru_it);
}

void ResultBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void ResultBuffer::ClearLocked() {
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

std::string ResultBuffer::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  Encoder enc;
  enc.PutU64(entries_.size());
  // Persist in LRU order so the order is restored too.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Entry& e = entries_.at(*it);
    enc.PutString(*it);
    enc.PutU64(e.result.size());
    for (const auto& [oid, score] : e.result) {
      enc.PutU64(oid.raw());
      enc.PutDouble(score);
    }
  }
  return enc.Release();
}

Status ResultBuffer::Restore(std::string_view data) {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
  Decoder dec(data);
  SDMS_ASSIGN_OR_RETURN(uint64_t n, dec.GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    SDMS_ASSIGN_OR_RETURN(std::string query, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(uint64_t m, dec.GetU64());
    OidScoreMap result;
    for (uint64_t k = 0; k < m; ++k) {
      SDMS_ASSIGN_OR_RETURN(uint64_t raw, dec.GetU64());
      SDMS_ASSIGN_OR_RETURN(double score, dec.GetDouble());
      result.emplace(Oid(raw), score);
    }
    PutLocked(query, std::move(result));
  }
  return Status::OK();
}

}  // namespace sdms::coupling

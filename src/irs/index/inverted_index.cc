#include "irs/index/inverted_index.h"

#include <algorithm>
#include <cstdio>

#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/thread_pool.h"
#include "oodb/storage/serializer.h"

namespace sdms::irs {

using oodb::Decoder;
using oodb::Encoder;

namespace {

obs::Counter& TermLookups() {
  static obs::Counter& c = obs::GetCounter("irs.index.term_lookups");
  return c;
}

obs::Counter& BatchDocs() {
  static obs::Counter& c = obs::GetCounter("irs.index.batch_docs");
  return c;
}

obs::Counter& BatchCalls() {
  static obs::Counter& c = obs::GetCounter("irs.index.batch_calls");
  return c;
}

obs::Counter& Compactions() {
  static obs::Counter& c = obs::GetCounter("irs.index.compactions");
  return c;
}

obs::Counter& CompactionDecodeFailures() {
  static obs::Counter& c =
      obs::GetCounter("irs.index.compaction_decode_failures");
  return c;
}

obs::Gauge& IndexMemoryBytes() {
  static obs::Gauge& g = obs::GetGauge("irs.index.memory_bytes");
  return g;
}

}  // namespace

InvertedIndex::InvertedIndex() = default;

InvertedIndex::~InvertedIndex() {
  IndexMemoryBytes().Add(-reported_memory_bytes_);
}

InvertedIndex::InvertedIndex(InvertedIndex&& other) noexcept {
  *this = std::move(other);
}

InvertedIndex& InvertedIndex::operator=(InvertedIndex&& other) noexcept {
  if (this == &other) return *this;
  IndexMemoryBytes().Add(-reported_memory_bytes_);
  dictionary_ = std::move(other.dictionary_);
  docs_ = std::move(other.docs_);
  by_key_ = std::move(other.by_key_);
  pending_prune_ = std::move(other.pending_prune_);
  live_docs_ = other.live_docs_;
  total_tokens_ = other.total_tokens_;
  tombstones_ = other.tombstones_;
  eager_delete_ = other.eager_delete_;
  auto_compact_ = other.auto_compact_;
  // The cached sorted view holds pointers into the moved-from map's
  // nodes; unordered_map move preserves nodes, but rebuild lazily
  // anyway — the mutex member is why these operators are hand-written.
  sorted_terms_.clear();
  sorted_terms_dirty_ = true;
  reported_memory_bytes_ = other.reported_memory_bytes_;
  other.reported_memory_bytes_ = 0;
  other.live_docs_ = 0;
  other.total_tokens_ = 0;
  other.tombstones_ = 0;
  return *this;
}

void InvertedIndex::AccumulatePostings(
    DocId id, const std::vector<std::string>& tokens,
    std::unordered_map<std::string, BlockPostingsList>& dict) {
  // Group positions per term for this document.
  std::unordered_map<std::string, std::vector<uint32_t>> grouped;
  grouped.reserve(tokens.size());
  for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
    grouped[tokens[pos]].push_back(pos);
  }
  uint32_t doc_len = static_cast<uint32_t>(tokens.size());
  for (auto& [term, positions] : grouped) {
    // Doc ids are monotonically increasing, so appending keeps the
    // block sequence sorted.
    dict[term].Append(id, static_cast<uint32_t>(positions.size()), positions,
                      doc_len);
  }
}

DocId InvertedIndex::AddDocument(const std::string& key,
                                 const std::vector<std::string>& tokens) {
  DocId id = static_cast<DocId>(docs_.size());
  DocInfo info;
  info.key = key;
  info.length = static_cast<uint32_t>(tokens.size());
  info.alive = true;
  docs_.push_back(std::move(info));
  pending_prune_.push_back(false);
  by_key_[key] = id;
  ++live_docs_;
  total_tokens_ += tokens.size();
  AccumulatePostings(id, tokens, dictionary_);
  InvalidateSortedTerms();
  return id;
}

StatusOr<std::vector<DocId>> InvertedIndex::AddDocumentsBatch(
    const std::vector<DocTokens>& docs, ThreadPool* pool) {
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  if (docs.empty()) return ids;

  // Phase 1 (sequential, cheap): assign consecutive ids and register
  // the documents, so shard workers only touch disjoint postings state.
  const DocId base = static_cast<DocId>(docs_.size());
  docs_.reserve(docs_.size() + docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    auto [it, inserted] =
        by_key_.emplace(docs[i].key, base + static_cast<DocId>(i));
    if (!inserted) {
      // Roll back the keys registered so far; the index is unchanged.
      for (size_t k = 0; k < i; ++k) by_key_.erase(docs[k].key);
      return Status::AlreadyExists("duplicate IRS document key in batch: " +
                                   docs[i].key);
    }
  }
  for (const DocTokens& d : docs) {
    DocInfo info;
    info.key = d.key;
    info.length = static_cast<uint32_t>(d.tokens.size());
    info.alive = true;
    docs_.push_back(std::move(info));
    pending_prune_.push_back(false);
    ++live_docs_;
    total_tokens_ += d.tokens.size();
    ids.push_back(base + static_cast<DocId>(ids.size()));
  }

  // Phase 2 (parallel): contiguous shards of the batch each build a
  // local term -> postings map. Within a shard postings are generated
  // in ascending doc-id order.
  size_t shards = pool != nullptr ? std::min(pool->size(), docs.size()) : 1;
  std::vector<std::unordered_map<std::string, BlockPostingsList>> local(
      shards);
  if (shards <= 1) {
    for (size_t i = 0; i < docs.size(); ++i) {
      AccumulatePostings(base + static_cast<DocId>(i), docs[i].tokens,
                         local[0]);
    }
  } else {
    size_t chunk = (docs.size() + shards - 1) / shards;
    pool->ParallelFor(shards, [&](size_t sbegin, size_t send) {
      for (size_t s = sbegin; s < send; ++s) {
        size_t lo = s * chunk;
        size_t hi = std::min(lo + chunk, docs.size());
        for (size_t i = lo; i < hi; ++i) {
          AccumulatePostings(base + static_cast<DocId>(i), docs[i].tokens,
                             local[s]);
        }
      }
    });
  }

  // Phase 3 (sequential): splice shard lists in shard order. Shards
  // cover ascending doc-id ranges, so per-term concatenation keeps the
  // block sequence sorted — decoded postings are identical to the
  // sequential path (a shard boundary may just leave a short block).
  for (auto& shard : local) {
    for (auto& [term, list] : shard) {
      auto it = dictionary_.find(term);
      if (it == dictionary_.end()) {
        dictionary_.emplace(term, std::move(list));
      } else {
        it->second.AppendList(std::move(list));
      }
    }
  }
  InvalidateSortedTerms();
  BatchDocs().Add(docs.size());
  BatchCalls().Increment();
  return ids;
}

Status InvertedIndex::RemoveDocument(DocId id) {
  if (id >= docs_.size() || !docs_[id].alive) {
    return Status::NotFound("no live IRS document " + std::to_string(id));
  }
  docs_[id].alive = false;
  by_key_.erase(docs_[id].key);
  --live_docs_;
  total_tokens_ -= docs_[id].length;
  pending_prune_[id] = true;
  ++tombstones_;
  if (eager_delete_) {
    // Physical prune: rewriting every affected list on each delete is
    // the "deleting IRS documents is costly" behaviour the paper
    // discusses (4.3.1 (3)).
    PrunePostingsOfDeadDocs();
  } else {
    MaybeCompact();
  }
  return Status::OK();
}

bool InvertedIndex::PrunePostingsOfDeadDocs() {
  // Rebuild every list without the tombstoned docs. All decodes happen
  // before the dictionary is touched, so a corrupt block aborts
  // the prune with the index unchanged (tombstones stay pending and a
  // later Compact retries).
  std::unordered_map<std::string, BlockPostingsList> rebuilt;
  rebuilt.reserve(dictionary_.size());
  for (const auto& [term, list] : dictionary_) {
    auto postings = list.DecodeAll();
    if (!postings.ok()) {
      CompactionDecodeFailures().Increment();
      return false;
    }
    BlockPostingsList pruned;
    for (const Posting& p : *postings) {
      if (pending_prune_[p.doc]) continue;
      pruned.Append(p.doc, p.tf, p.positions, docs_[p.doc].length);
    }
    if (!pruned.empty()) rebuilt.emplace(term, std::move(pruned));
  }
  dictionary_ = std::move(rebuilt);
  std::fill(pending_prune_.begin(), pending_prune_.end(), false);
  tombstones_ = 0;
  InvalidateSortedTerms();
  return true;
}

size_t InvertedIndex::Compact() {
  size_t cleared = tombstones_;
  if (cleared == 0) return 0;
  if (!PrunePostingsOfDeadDocs()) return 0;
  Compactions().Increment();
  return cleared;
}

void InvertedIndex::MaybeCompact() {
  if (!auto_compact_ || tombstones_ == 0) return;
  if (static_cast<double>(tombstones_) >=
      kCompactionRatio * static_cast<double>(docs_.size())) {
    Compact();
  }
}

StatusOr<DocId> InvertedIndex::FindByKey(const std::string& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no IRS document with key " + key);
  }
  return it->second;
}

const BlockPostingsList* InvertedIndex::GetPostingsList(
    const std::string& term) const {
  TermLookups().Increment();
  obs::ProfileCount("term_lookups");
  auto it = dictionary_.find(term);
  return it == dictionary_.end() ? nullptr : &it->second;
}

PostingsCursor InvertedIndex::OpenCursor(const std::string& term) const {
  return PostingsCursor(GetPostingsList(term));
}

uint32_t InvertedIndex::DocFreq(const std::string& term) const {
  // Metadata-only: the old flat index walked (and charged) the whole
  // list here; block metadata answers df without decoding anything.
  const BlockPostingsList* list = GetPostingsList(term);
  return list == nullptr ? 0 : static_cast<uint32_t>(list->size());
}

StatusOr<const DocInfo*> InvertedIndex::GetDoc(DocId id) const {
  if (id >= docs_.size()) {
    return Status::NotFound("no IRS document " + std::to_string(id));
  }
  return &docs_[id];
}

double InvertedIndex::avg_doc_length() const {
  if (live_docs_ == 0) return 0.0;
  return static_cast<double>(total_tokens_) / static_cast<double>(live_docs_);
}

size_t InvertedIndex::ApproximateSizeBytes() const {
  size_t bytes = 0;
  for (const auto& [term, list] : dictionary_) {
    bytes += term.size() + sizeof(void*) * 4;  // dictionary entry overhead
    bytes += list.ApproxMemoryBytes();
  }
  for (const DocInfo& d : docs_) {
    bytes += sizeof(DocInfo) + d.key.size();
  }
  IndexMemoryBytes().Add(static_cast<int64_t>(bytes) -
                         reported_memory_bytes_);
  reported_memory_bytes_ = static_cast<int64_t>(bytes);
  return bytes;
}

const std::vector<const InvertedIndex::DictEntry*>&
InvertedIndex::SortedTerms() const {
  std::lock_guard<std::mutex> lock(sorted_terms_mu_);
  if (sorted_terms_dirty_) {
    sorted_terms_.clear();
    sorted_terms_.reserve(dictionary_.size());
    for (const auto& entry : dictionary_) sorted_terms_.push_back(&entry);
    std::sort(sorted_terms_.begin(), sorted_terms_.end(),
              [](const DictEntry* a, const DictEntry* b) {
                return a->first < b->first;
              });
    sorted_terms_dirty_ = false;
  }
  return sorted_terms_;
}

StatusOr<std::string> InvertedIndex::Serialize() const {
  Encoder enc;
  enc.PutU64(docs_.size());
  for (const DocInfo& d : docs_) {
    enc.PutString(d.key);
    enc.PutU32(d.length);
    enc.PutU8(d.alive ? 1 : 0);
  }
  // Serialize in compacted form: tombstoned postings are dropped, and
  // terms they empty out are not written at all. The per-posting
  // layout is the pre-block-storage snapshot format, unchanged.
  const std::vector<const DictEntry*>& terms = SortedTerms();
  std::vector<std::vector<Posting>> decoded(terms.size());
  uint64_t live_terms = 0;
  for (size_t t = 0; t < terms.size(); ++t) {
    SDMS_ASSIGN_OR_RETURN(decoded[t], terms[t]->second.DecodeAll());
    auto& postings = decoded[t];
    postings.erase(std::remove_if(postings.begin(), postings.end(),
                                  [this](const Posting& p) {
                                    return pending_prune_[p.doc];
                                  }),
                   postings.end());
    if (!postings.empty()) ++live_terms;
  }
  enc.PutU64(live_terms);
  for (size_t t = 0; t < terms.size(); ++t) {
    const auto& postings = decoded[t];
    if (postings.empty()) continue;
    enc.PutString(terms[t]->first);
    enc.PutU64(postings.size());
    for (const Posting& p : postings) {
      enc.PutU32(p.doc);
      enc.PutU32(p.tf);
      // Delta-encode positions (classic postings compression).
      uint32_t prev = 0;
      enc.PutU64(p.positions.size());
      for (uint32_t pos : p.positions) {
        enc.PutU32(pos - prev);
        prev = pos;
      }
    }
  }
  return enc.Release();
}

StatusOr<InvertedIndex> InvertedIndex::Deserialize(std::string_view data) {
  InvertedIndex index;
  Decoder dec(data);
  SDMS_ASSIGN_OR_RETURN(uint64_t ndocs, dec.GetU64());
  for (uint64_t i = 0; i < ndocs; ++i) {
    DocInfo d;
    SDMS_ASSIGN_OR_RETURN(d.key, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(d.length, dec.GetU32());
    SDMS_ASSIGN_OR_RETURN(uint8_t alive, dec.GetU8());
    d.alive = alive != 0;
    if (d.alive) {
      index.by_key_[d.key] = static_cast<DocId>(i);
      ++index.live_docs_;
      index.total_tokens_ += d.length;
    }
    index.docs_.push_back(std::move(d));
    index.pending_prune_.push_back(false);
  }
  SDMS_ASSIGN_OR_RETURN(uint64_t nterms, dec.GetU64());
  for (uint64_t t = 0; t < nterms; ++t) {
    SDMS_ASSIGN_OR_RETURN(std::string term, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(uint64_t nposts, dec.GetU64());
    BlockPostingsList list;
    std::vector<uint32_t> positions;
    for (uint64_t i = 0; i < nposts; ++i) {
      uint32_t doc = 0, tf = 0;
      SDMS_ASSIGN_OR_RETURN(doc, dec.GetU32());
      SDMS_ASSIGN_OR_RETURN(tf, dec.GetU32());
      SDMS_ASSIGN_OR_RETURN(uint64_t npos, dec.GetU64());
      positions.clear();
      uint32_t cur = 0;
      for (uint64_t k = 0; k < npos; ++k) {
        SDMS_ASSIGN_OR_RETURN(uint32_t delta, dec.GetU32());
        cur += delta;
        positions.push_back(cur);
      }
      uint32_t doc_len =
          doc < index.docs_.size() ? index.docs_[doc].length : 0;
      list.Append(doc, tf, positions, doc_len);
    }
    index.dictionary_.emplace(std::move(term), std::move(list));
  }
  index.InvalidateSortedTerms();
  return index;
}

void InvertedIndex::CollectCanonicalDocs(
    std::vector<std::pair<std::string, uint32_t>>& out) const {
  ForEachDoc(
      [&](DocId, const DocInfo& d) { out.emplace_back(d.key, d.length); });
}

Status InvertedIndex::CollectCanonicalPostings(
    std::vector<CanonicalPosting>& out) const {
  Status decode_error;
  ForEachTerm([&](const std::string& term, const BlockPostingsList& list) {
    auto postings = list.DecodeAll();
    if (!postings.ok()) {
      if (decode_error.ok()) decode_error = postings.status();
      return;
    }
    for (const Posting& p : *postings) {
      if (!IsAlive(p.doc)) continue;
      CanonicalPosting entry;
      entry.term = term;
      entry.key = docs_[p.doc].key;
      entry.payload = std::to_string(p.tf);
      for (uint32_t pos : p.positions) {
        entry.payload += " " + std::to_string(pos);
      }
      out.push_back(std::move(entry));
    }
  });
  return decode_error;
}

std::string InvertedIndex::FinishCanonicalDigest(
    std::vector<std::pair<std::string, uint32_t>> docs,
    std::vector<CanonicalPosting> postings, const Status& decode_error) {
  if (!decode_error.ok()) {
    // A digest must always be produced; a corrupt block yields one
    // that can never match a healthy index.
    return "decode-error:" + decode_error.ToString();
  }
  // Canonical serialization: documents sorted by external key, then
  // every live posting sorted by (term, key) with its positions —
  // nothing here depends on DocId values, insertion order, shard
  // assignment, or whether tombstones have been compacted yet.
  std::sort(docs.begin(), docs.end());
  std::sort(postings.begin(), postings.end(),
            [](const CanonicalPosting& a, const CanonicalPosting& b) {
              if (a.term != b.term) return a.term < b.term;
              return a.key < b.key;
            });
  std::string canon;
  for (const auto& [key, length] : docs) {
    canon += "d " + key + " " + std::to_string(length) + "\n";
  }
  for (const CanonicalPosting& p : postings) {
    canon += "t " + p.term + " " + p.key + " " + p.payload + "\n";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "crc32:%08x;docs:%zu;postings:%zu",
                oodb::Crc32(canon), docs.size(), postings.size());
  return buf;
}

std::string InvertedIndex::CanonicalDigest() const {
  std::vector<std::pair<std::string, uint32_t>> docs;
  std::vector<CanonicalPosting> postings;
  CollectCanonicalDocs(docs);
  Status decode_error = CollectCanonicalPostings(postings);
  return FinishCanonicalDigest(std::move(docs), std::move(postings),
                               decode_error);
}

std::string InvertedIndex::CheckInvariants() const {
  std::vector<uint64_t> doc_token_counts(docs_.size(), 0);
  size_t seen_tombstones = 0;
  std::vector<bool> counted(docs_.size(), false);
  for (const auto& [term, list] : dictionary_) {
    if (list.empty()) return "empty postings list for term " + term;
    auto decoded = list.DecodeAll();
    if (!decoded.ok()) {
      return "undecodable postings for " + term + ": " +
             decoded.status().ToString();
    }
    const std::vector<Posting>& postings = *decoded;
    if (postings.size() != list.size()) {
      return "block metadata count mismatch for " + term;
    }
    // Block metadata must agree with decoded content — the skipping
    // kernels trust it blindly.
    size_t off = 0;
    for (size_t b = 0; b < list.block_count(); ++b) {
      const PostingsBlockMeta& meta = list.block(b);
      if (meta.count == 0) return "empty block for term " + term;
      if (postings[off].doc != meta.first_doc ||
          postings[off + meta.count - 1].doc != meta.last_doc) {
        return "block doc-range metadata mismatch for " + term;
      }
      uint32_t max_tf = 0;
      for (size_t i = 0; i < meta.count; ++i) {
        max_tf = std::max(max_tf, postings[off + i].tf);
      }
      if (max_tf != meta.max_tf) {
        return "block max_tf metadata mismatch for " + term;
      }
      off += meta.count;
    }
    DocId prev = 0;
    bool first = true;
    for (const Posting& p : postings) {
      if (!first && p.doc <= prev) return "postings unsorted for " + term;
      first = false;
      prev = p.doc;
      if (p.doc >= docs_.size()) return "posting references unknown doc";
      if (!docs_[p.doc].alive) {
        // Dead postings are legal only while the doc awaits compaction.
        if (!pending_prune_[p.doc]) return "posting references dead doc";
        if (!counted[p.doc]) {
          counted[p.doc] = true;
          ++seen_tombstones;
        }
        continue;
      }
      if (p.tf != p.positions.size()) return "tf != positions.size()";
      for (size_t i = 1; i < p.positions.size(); ++i) {
        if (p.positions[i] <= p.positions[i - 1]) {
          return "positions unsorted for " + term;
        }
      }
      doc_token_counts[p.doc] += p.tf;
    }
  }
  if (seen_tombstones > tombstones_) return "tombstone count mismatch";
  uint64_t tokens = 0;
  uint32_t live = 0;
  for (DocId id = 0; id < docs_.size(); ++id) {
    if (!docs_[id].alive) continue;
    ++live;
    tokens += docs_[id].length;
    if (doc_token_counts[id] != docs_[id].length) {
      return "doc length mismatch for " + docs_[id].key;
    }
  }
  if (live != live_docs_) return "live_docs_ mismatch";
  if (tokens != total_tokens_) return "total_tokens_ mismatch";
  return "";
}

}  // namespace sdms::irs

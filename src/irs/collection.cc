#include "irs/collection.h"

#include <algorithm>
#include <mutex>

#include "common/fault/fault.h"
#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/obs/trace.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "irs/index/proximity.h"
#include "oodb/storage/serializer.h"

namespace sdms::irs {

namespace {

struct IrsMetrics {
  obs::Counter& searches = obs::GetCounter("irs.index.searches");
  obs::Counter& docs_indexed = obs::GetCounter("irs.index.docs_indexed");
  obs::Counter& docs_removed = obs::GetCounter("irs.index.docs_removed");
  obs::Histogram& build_us = obs::GetHistogram("irs.index.build_micros");
  obs::Histogram& search_us = obs::GetHistogram("irs.index.search_micros");
  obs::Histogram& batch_us = obs::GetHistogram("irs.index.batch_micros");
};

IrsMetrics& Metrics() {
  static IrsMetrics* m = new IrsMetrics();
  return *m;
}

/// Lazily built, process-stable per-shard name tables. Profile stages
/// and fault points both keep borrowed const char* pointers, so the
/// strings must never move or be destroyed.
const char* StableShardName(size_t shard, const char* prefix,
                            std::vector<std::unique_ptr<std::string>>& names,
                            std::mutex& mu) {
  std::lock_guard<std::mutex> lock(mu);
  while (names.size() <= shard) {
    names.push_back(std::make_unique<std::string>(
        prefix + std::to_string(names.size())));
  }
  return names[shard]->c_str();
}

/// Hit ordering: descending score, ties broken by key.
bool BetterHit(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.key < b.key;
}

}  // namespace

void CollectWindowNodes(const QueryNode& node,
                        std::vector<const QueryNode*>& out) {
  if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
    out.push_back(&node);
    return;
  }
  for (const auto& c : node.children) CollectWindowNodes(*c, out);
}

const char* ShardSearchStageName(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardName(shard, "irs_search/shard", names, mu);
}

const char* ShardSearchFaultPoint(size_t shard) {
  static std::mutex mu;
  static std::vector<std::unique_ptr<std::string>> names;
  return StableShardName(shard, "irs.search.shard", names, mu);
}

IrsCollection::IrsCollection(std::string name,
                             AnalyzerOptions analyzer_options,
                             std::unique_ptr<RetrievalModel> model,
                             uint32_t num_shards)
    : name_(std::move(name)),
      analyzer_(analyzer_options),
      model_(std::move(model)),
      shard_map_(num_shards) {
  shards_.reserve(shard_map_.num_shards());
  for (uint32_t s = 0; s < shard_map_.num_shards(); ++s) {
    shards_.push_back(NewShard());
  }
  applied_seq_.assign(shards_.size(), 0);
}

std::unique_ptr<InvertedIndex> IrsCollection::NewShard() const {
  auto shard = std::make_unique<InvertedIndex>();
  shard->set_eager_delete(eager_delete_);
  // Threshold compaction is driven collection-wide (MaybeCompactShards)
  // so that DocFreq — which counts tombstones until the prune — stays
  // identical across shard layouts.
  shard->set_auto_compact(false);
  return shard;
}

void IrsCollection::MaybeCompactShards() {
  // The same 25% ratio InvertedIndex applies locally, evaluated over
  // collection-global counts. Doc ids are never reclaimed, so the doc
  // tables sum to the unsharded table size and the decision fires at
  // exactly the same deletes for every shard layout (for one shard it
  // is the index's own check verbatim). All shards prune together,
  // keeping the summed corpus statistics bit-identical to an unsharded
  // index's.
  size_t tombstones = 0;
  size_t table = 0;
  for (const auto& shard : shards_) {
    tombstones += shard->tombstone_count();
    table += shard->doc_table_size();
  }
  if (tombstones == 0) return;
  if (static_cast<double>(tombstones) >=
      InvertedIndex::kCompactionRatio * static_cast<double>(table)) {
    CompactIndex();
  }
}

Status IrsCollection::SetNumShards(uint32_t n) {
  if (doc_count() != 0) {
    return Status::FailedPrecondition(
        "collection " + name_ +
        " is not empty; the shard map is fixed once documents exist");
  }
  shard_map_ = ShardMap(n);
  shards_.clear();
  for (uint32_t s = 0; s < shard_map_.num_shards(); ++s) {
    shards_.push_back(NewShard());
  }
  applied_seq_.assign(shards_.size(), 0);
  return Status::OK();
}

void IrsCollection::set_eager_delete(bool eager) {
  eager_delete_ = eager;
  for (auto& shard : shards_) shard->set_eager_delete(eager);
}

size_t IrsCollection::CompactIndex() {
  size_t cleared = 0;
  for (auto& shard : shards_) cleared += shard->Compact();
  return cleared;
}

uint64_t IrsCollection::doc_count() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->doc_count();
  return n;
}

size_t IrsCollection::ApproximateSizeBytes() const {
  size_t bytes = 0;
  for (const auto& shard : shards_) bytes += shard->ApproximateSizeBytes();
  return bytes;
}

Status IrsCollection::AddDocument(const std::string& key,
                                  const std::string& text) {
  // All fault points sit before any mutation, so an injected failure
  // never leaves the index half-updated.
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.add"));
  if (HasDocument(key)) {
    return Status::AlreadyExists("document already in collection " + name_ +
                                 ": " + key);
  }
  obs::TraceSpan span("irs.add_document");
  std::vector<std::string> tokens = analyzer_.Analyze(text);
  shards_[ShardOfKey(key)]->AddDocument(key, tokens);
  ++stats_.docs_indexed;
  Metrics().docs_indexed.Increment();
  Metrics().build_us.Record(static_cast<double>(span.ElapsedMicros()));
  return Status::OK();
}

Status IrsCollection::AddDocumentsBatch(const std::vector<BatchDocument>& docs,
                                        ThreadPool* pool) {
  if (docs.empty()) return Status::OK();
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.batch_add"));
  for (const BatchDocument& d : docs) {
    if (HasDocument(d.key)) {
      return Status::AlreadyExists("document already in collection " + name_ +
                                   ": " + d.key);
    }
  }
  obs::TraceSpan span("irs.add_documents_batch");
  if (pool == nullptr) pool = DefaultThreadPool();

  // Fan the analysis pipeline (tokenize/stop/stem — the dominant cost)
  // out across the pool; the Analyzer is stateless and shared.
  std::vector<DocTokens> analyzed(docs.size());
  auto analyze_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (QueryShouldStop()) return;  // abandoned below, pre-mutation
      analyzed[i].key = docs[i].key;
      analyzed[i].tokens = analyzer_.Analyze(docs[i].text);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(docs.size(), analyze_range);
  } else {
    analyze_range(0, docs.size());
  }
  // Analysis precedes any index mutation, so a deadline/cancellation
  // here aborts the batch cleanly (no half-indexed documents).
  SDMS_RETURN_IF_ERROR(CurrentQueryStatus());

  // Partition per shard, preserving batch order within each shard. A
  // within-batch duplicate key lands in one shard and is rejected by
  // that shard's AddDocumentsBatch — catch it here first so no other
  // shard has been mutated by the time it surfaces.
  std::vector<std::vector<DocTokens>> per_shard(shards_.size());
  for (auto& d : analyzed) {
    uint32_t s = ShardOfKey(d.key);
    for (const DocTokens& seen : per_shard[s]) {
      if (seen.key == d.key) {
        return Status::AlreadyExists("duplicate IRS document key in batch: " +
                                     d.key);
      }
    }
    per_shard[s].push_back(std::move(d));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    SDMS_RETURN_IF_ERROR(
        shards_[s]->AddDocumentsBatch(per_shard[s], pool).status());
  }
  stats_.docs_indexed += docs.size();
  Metrics().docs_indexed.Add(docs.size());
  Metrics().batch_us.Record(static_cast<double>(span.ElapsedMicros()));
  return Status::OK();
}

Status IrsCollection::UpdateDocument(const std::string& key,
                                     const std::string& text) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.update"));
  SDMS_RETURN_IF_ERROR(RemoveDocument(key));
  return AddDocument(key, text);
}

Status IrsCollection::RemoveDocument(const std::string& key) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.remove"));
  InvertedIndex& shard = *shards_[ShardOfKey(key)];
  SDMS_ASSIGN_OR_RETURN(DocId id, shard.FindByKey(key));
  SDMS_RETURN_IF_ERROR(shard.RemoveDocument(id));
  if (!eager_delete_) MaybeCompactShards();
  ++stats_.docs_removed;
  Metrics().docs_removed.Increment();
  return Status::OK();
}

StatusOr<IrsCollection::SearchPlan> IrsCollection::PrepareSearch(
    const std::string& query, size_t k) {
  SDMS_RETURN_IF_ERROR(CurrentQueryStatus());
  Metrics().searches.Increment();
  SearchPlan plan;
  plan.k = k;
  SDMS_ASSIGN_OR_RETURN(plan.tree, ParseIrsQuery(query, analyzer_));

  // Global corpus statistics: integer sums over shards, so every shard
  // scores against exactly the numbers one unsharded index would hold.
  for (const auto& shard : shards_) {
    plan.corpus.doc_count += shard->doc_count();
    plan.corpus.total_tokens += shard->total_tokens();
  }
  std::vector<std::string> terms;
  plan.tree->CollectTerms(terms);
  for (const std::string& term : terms) {
    if (plan.corpus.term_df.count(term) > 0) continue;
    uint64_t df = 0;
    for (const auto& shard : shards_) df += shard->DocFreq(term);
    plan.corpus.term_df[term] = df;
  }
  // Window pseudo-term df: matching documents summed over shards. Each
  // shard's scoring pass recomputes its local matches for tf; only the
  // df must be global.
  std::vector<const QueryNode*> windows;
  CollectWindowNodes(*plan.tree, windows);
  for (const QueryNode* node : windows) {
    std::vector<std::string> wterms;
    node->CollectTerms(wterms);
    uint64_t df = 0;
    for (const auto& shard : shards_) {
      SDMS_ASSIGN_OR_RETURN(
          auto freqs,
          WindowMatchFrequencies(*shard, wterms, node->op == QueryOp::kOdn,
                                 node->window));
      df += freqs.size();
    }
    plan.corpus.window_df[node] = df;
  }
  ++stats_.queries_executed;
  return plan;
}

StatusOr<std::vector<SearchHit>> IrsCollection::SearchShard(
    const SearchPlan& plan, size_t shard) {
  SDMS_RETURN_IF_ERROR(fault::InjectFault("irs.search"));
  SDMS_RETURN_IF_ERROR(fault::InjectFault(ShardSearchFaultPoint(shard)));
  SDMS_RETURN_IF_ERROR(CurrentQueryStatus());
  obs::TraceSpan span("irs.search");
  const InvertedIndex& index = *shards_[shard];
  const size_t k = plan.k;
  // k > 0 lets the model prune: ScoreTopK returns a map guaranteed to
  // contain every live doc that can appear in the final top k, with
  // scores bit-identical to Score() — the selection below is unchanged.
  SDMS_ASSIGN_OR_RETURN(
      ScoreMap scores,
      k > 0 ? model_->ScoreTopK(index, *plan.tree, k, &plan.corpus)
            : model_->Score(index, *plan.tree, &plan.corpus));
  obs::ProfileCount("irs_candidates", scores.size());
  // The kernels exit early (with partial output) on cancellation; make
  // that an authoritative error before hits are materialized.
  SDMS_RETURN_IF_ERROR(CurrentQueryStatus());

  std::vector<SearchHit> hits;
  if (k > 0 && scores.size() > k) {
    // Bounded top-k: a k-sized min-heap whose root is the weakest
    // retained hit; better candidates displace it.
    hits.reserve(k + 1);
    auto heap_cmp = [](const SearchHit& a, const SearchHit& b) {
      return BetterHit(a, b);  // makes the *worst* hit the heap root
    };
    for (const auto& [doc, score] : scores) {
      auto info = index.GetDoc(doc);
      if (!info.ok() || !(*info)->alive) continue;
      SearchHit h{(*info)->key, score};
      if (hits.size() < k) {
        hits.push_back(std::move(h));
        std::push_heap(hits.begin(), hits.end(), heap_cmp);
      } else if (BetterHit(h, hits.front())) {
        std::pop_heap(hits.begin(), hits.end(), heap_cmp);
        hits.back() = std::move(h);
        std::push_heap(hits.begin(), hits.end(), heap_cmp);
      }
    }
  } else {
    hits.reserve(scores.size());
    for (const auto& [doc, score] : scores) {
      auto info = index.GetDoc(doc);
      if (!info.ok() || !(*info)->alive) continue;
      hits.push_back(SearchHit{(*info)->key, score});
    }
  }
  std::sort(hits.begin(), hits.end(), BetterHit);
  return hits;
}

std::vector<SearchHit> IrsCollection::MergeShardHits(
    std::vector<std::vector<SearchHit>> per_shard, size_t k) {
  std::vector<SearchHit> merged;
  size_t total = 0;
  for (const auto& hits : per_shard) total += hits.size();
  merged.reserve(total);
  for (auto& hits : per_shard) {
    merged.insert(merged.end(), std::make_move_iterator(hits.begin()),
                  std::make_move_iterator(hits.end()));
  }
  std::sort(merged.begin(), merged.end(), BetterHit);
  if (k > 0 && merged.size() > k) merged.resize(k);
  return merged;
}

StatusOr<std::vector<SearchHit>> IrsCollection::Search(
    const std::string& query) {
  return Search(query, 0);
}

StatusOr<std::vector<SearchHit>> IrsCollection::Search(
    const std::string& query, size_t k) {
  obs::TraceSpan span("irs.search");
  obs::ProfileStageScope stage("irs_search");
  SDMS_ASSIGN_OR_RETURN(SearchPlan plan, PrepareSearch(query, k));

  const size_t n = shards_.size();
  std::vector<StatusOr<std::vector<SearchHit>>> results;
  results.reserve(n);
  for (size_t s = 0; s < n; ++s) results.emplace_back(std::vector<SearchHit>{});
  auto run_range = [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      obs::ProfileStageScope shard_stage(ShardSearchStageName(s));
      results[s] = SearchShard(plan, s);
    }
  };
  ThreadPool* pool = n > 1 ? DefaultThreadPool() : nullptr;
  if (pool != nullptr) {
    pool->ParallelFor(n, run_range);
  } else {
    run_range(0, n);
  }

  std::vector<std::vector<SearchHit>> per_shard;
  per_shard.reserve(n);
  for (auto& r : results) {
    // All-or-nothing here: a direct Search has no per-shard guard to
    // absorb the failure, so it surfaces. The coupling's fan-out path
    // degrades instead.
    SDMS_RETURN_IF_ERROR(r.status());
    per_shard.push_back(std::move(*r));
  }
  Metrics().search_us.Record(static_cast<double>(span.ElapsedMicros()));
  return MergeShardHits(std::move(per_shard), k);
}

uint64_t IrsCollection::applied_seq() const {
  uint64_t low = applied_seq_.empty() ? 0 : applied_seq_[0];
  for (uint64_t seq : applied_seq_) low = std::min(low, seq);
  return low;
}

void IrsCollection::set_applied_seq(uint64_t seq) {
  for (size_t s = 0; s < applied_seq_.size(); ++s) {
    set_shard_applied_seq(s, seq);
  }
}

std::string IrsCollection::DigestShards(
    const std::vector<std::unique_ptr<InvertedIndex>>& shards) {
  std::vector<std::pair<std::string, uint32_t>> docs;
  std::vector<InvertedIndex::CanonicalPosting> postings;
  Status decode_error;
  for (const auto& shard : shards) {
    shard->CollectCanonicalDocs(docs);
    Status s = shard->CollectCanonicalPostings(postings);
    if (decode_error.ok()) decode_error = s;
  }
  return InvertedIndex::FinishCanonicalDigest(std::move(docs),
                                              std::move(postings),
                                              decode_error);
}

std::string IrsCollection::CanonicalDigest() const {
  return DigestShards(shards_);
}

std::string IrsCollection::CheckInvariants() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::string broken = shards_[s]->CheckInvariants();
    if (!broken.empty()) {
      return "shard " + std::to_string(s) + ": " + broken;
    }
    std::string misrouted;
    shards_[s]->ForEachDoc([&](DocId, const DocInfo& info) {
      if (misrouted.empty() && ShardOfKey(info.key) != s) {
        misrouted = "document " + info.key + " in shard " +
                    std::to_string(s) + " but routes to shard " +
                    std::to_string(ShardOfKey(info.key));
      }
    });
    if (!misrouted.empty()) return misrouted;
  }
  return "";
}

namespace {

/// Envelope prefix for sharded collection blobs: shard map + per-shard
/// (applied_seq, index bytes).
constexpr uint32_t kShardedCollectionMagic = 0x53445156;  // "VQDS"

}  // namespace

StatusOr<std::string> IrsCollection::Serialize() const {
  oodb::Encoder enc;
  enc.PutU32(kShardedCollectionMagic);
  shard_map_.EncodeTo(enc);
  for (size_t s = 0; s < shards_.size(); ++s) {
    enc.PutU64(applied_seq_[s]);
    SDMS_ASSIGN_OR_RETURN(std::string index_bytes, shards_[s]->Serialize());
    enc.PutString(index_bytes);
  }
  return enc.Release();
}

Status IrsCollection::RestoreIndex(std::string_view data) {
  oodb::Decoder dec(data);
  SDMS_ASSIGN_OR_RETURN(uint32_t magic, dec.GetU32());
  if (magic != kShardedCollectionMagic) {
    return Status::Corruption("collection snapshot: bad magic");
  }
  SDMS_ASSIGN_OR_RETURN(ShardMap map, ShardMap::DecodeFrom(dec));
  std::vector<std::unique_ptr<InvertedIndex>> shards;
  std::vector<uint64_t> seqs;
  for (uint32_t s = 0; s < map.num_shards(); ++s) {
    SDMS_ASSIGN_OR_RETURN(uint64_t seq, dec.GetU64());
    SDMS_ASSIGN_OR_RETURN(std::string bytes, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(InvertedIndex index,
                          InvertedIndex::Deserialize(bytes));
    auto shard = std::make_unique<InvertedIndex>(std::move(index));
    shard->set_eager_delete(eager_delete_);
    shard->set_auto_compact(false);
    shards.push_back(std::move(shard));
    seqs.push_back(seq);
  }
  // The snapshot's shard layout wins over the current SDMS_SHARDS: the
  // map is part of the data (re-sharding is a rebuild, not a restore).
  shard_map_ = map;
  shards_ = std::move(shards);
  applied_seq_ = std::move(seqs);
  return Status::OK();
}

std::string IrsCollection::EncodePlanStats(const SearchPlan& plan) {
  oodb::Encoder enc;
  enc.PutU64(plan.corpus.doc_count);
  enc.PutU64(plan.corpus.total_tokens);
  // Deterministic bytes: terms sorted (the decoder looks them up by
  // name, so only the encoding order needs pinning).
  std::vector<std::pair<std::string, uint64_t>> terms(
      plan.corpus.term_df.begin(), plan.corpus.term_df.end());
  std::sort(terms.begin(), terms.end());
  enc.PutU64(terms.size());
  for (const auto& [term, df] : terms) {
    enc.PutString(term);
    enc.PutU64(df);
  }
  // Window df travels positionally: both sides parse the same query
  // with the same analyzer, so CollectWindowNodes yields the windows
  // in the same order.
  std::vector<const QueryNode*> windows;
  CollectWindowNodes(*plan.tree, windows);
  enc.PutU64(windows.size());
  for (const QueryNode* node : windows) {
    enc.PutU64(plan.corpus.WindowDf(node));
  }
  return enc.Release();
}

StatusOr<IrsCollection::SearchPlan> IrsCollection::PrepareSearchWithStats(
    const std::string& query, size_t k, std::string_view stats) {
  SDMS_RETURN_IF_ERROR(CurrentQueryStatus());
  Metrics().searches.Increment();
  SearchPlan plan;
  plan.k = k;
  SDMS_ASSIGN_OR_RETURN(plan.tree, ParseIrsQuery(query, analyzer_));
  oodb::Decoder dec(stats);
  SDMS_ASSIGN_OR_RETURN(plan.corpus.doc_count, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(plan.corpus.total_tokens, dec.GetU64());
  SDMS_ASSIGN_OR_RETURN(uint64_t num_terms, dec.GetU64());
  for (uint64_t i = 0; i < num_terms; ++i) {
    SDMS_ASSIGN_OR_RETURN(std::string term, dec.GetString());
    SDMS_ASSIGN_OR_RETURN(uint64_t df, dec.GetU64());
    plan.corpus.term_df[term] = df;
  }
  std::vector<const QueryNode*> windows;
  CollectWindowNodes(*plan.tree, windows);
  SDMS_ASSIGN_OR_RETURN(uint64_t num_windows, dec.GetU64());
  if (num_windows != windows.size()) {
    return Status::Corruption(
        "wire statistics carry " + std::to_string(num_windows) +
        " window df(s) but the query parses to " +
        std::to_string(windows.size()) +
        " window node(s); query/analyzer mismatch between router and shard");
  }
  for (const QueryNode* node : windows) {
    SDMS_ASSIGN_OR_RETURN(uint64_t df, dec.GetU64());
    plan.corpus.window_df[node] = df;
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("trailing bytes after wire statistics");
  }
  ++stats_.queries_executed;
  return plan;
}

StatusOr<std::string> IrsCollection::SerializeShard(size_t shard) const {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range (collection has " +
                                   std::to_string(shards_.size()) + ")");
  }
  return shards_[shard]->Serialize();
}

Status IrsCollection::InstallShard(size_t shard, std::string_view index_bytes,
                                   uint64_t seq) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range (collection has " +
                                   std::to_string(shards_.size()) + ")");
  }
  SDMS_ASSIGN_OR_RETURN(InvertedIndex index,
                        InvertedIndex::Deserialize(index_bytes));
  auto replacement = std::make_unique<InvertedIndex>(std::move(index));
  replacement->set_eager_delete(eager_delete_);
  replacement->set_auto_compact(false);
  shards_[shard] = std::move(replacement);
  // An install is a state replacement, not an incremental apply: the
  // floor is set to exactly what the image reflects.
  applied_seq_[shard] = seq;
  return Status::OK();
}

Status IrsCollection::Reshard(uint32_t m) {
  if (m == 0 || m > ShardMap::kMaxShards) {
    return Status::InvalidArgument("shard count " + std::to_string(m) +
                                   " out of range [1, " +
                                   std::to_string(ShardMap::kMaxShards) + "]");
  }
  if (m == shards_.size()) return Status::OK();

  // 1. Reconstruct every live document's analyzed token sequence from
  // its positional postings — exact, with no re-analysis (re-stemming
  // already-stemmed tokens would not be idempotent).
  struct Rebuilt {
    std::string key;
    std::vector<std::string> tokens;
  };
  std::vector<Rebuilt> docs;
  for (const auto& shard : shards_) {
    std::unordered_map<DocId, size_t> slot;
    shard->ForEachDoc([&](DocId id, const DocInfo& info) {
      slot[id] = docs.size();
      Rebuilt doc;
      doc.key = info.key;
      doc.tokens.resize(info.length);
      docs.push_back(std::move(doc));
    });
    Status decode_error;
    shard->ForEachTerm(
        [&](const std::string& term, const BlockPostingsList& list) {
          auto postings = list.DecodeAll();
          if (!postings.ok()) {
            if (decode_error.ok()) decode_error = postings.status();
            return;
          }
          for (const Posting& p : *postings) {
            auto it = slot.find(p.doc);
            if (it == slot.end()) continue;  // tombstoned
            std::vector<std::string>& tokens = docs[it->second].tokens;
            for (uint32_t pos : p.positions) {
              if (pos >= tokens.size()) {
                decode_error = Status::Corruption(
                    "position " + std::to_string(pos) +
                    " beyond document length in " + docs[it->second].key);
                return;
              }
              tokens[pos] = term;
            }
          }
        });
    SDMS_RETURN_IF_ERROR(decode_error);
  }
  for (const Rebuilt& doc : docs) {
    for (const std::string& token : doc.tokens) {
      if (token.empty()) {
        return Status::Corruption("position gap reconstructing " + doc.key +
                                  "; postings do not cover its length");
      }
    }
  }
  // Deterministic rebuild order, independent of the old layout.
  std::sort(docs.begin(), docs.end(),
            [](const Rebuilt& a, const Rebuilt& b) { return a.key < b.key; });

  // 2. Build the m-shard layout off to the side.
  ShardMap new_map(m);
  std::vector<std::unique_ptr<InvertedIndex>> new_shards;
  new_shards.reserve(m);
  for (uint32_t s = 0; s < m; ++s) new_shards.push_back(NewShard());
  for (const Rebuilt& doc : docs) {
    new_shards[new_map.ShardOf(doc.key)]->AddDocument(doc.key, doc.tokens);
  }

  // 3. Verify before swap: the rebuilt layout must hold exactly the
  // same documents and postings (CanonicalDigest is layout-independent
  // and live-only, so the digests must be equal).
  std::string before = CanonicalDigest();
  std::string after = DigestShards(new_shards);
  if (before != after) {
    return Status::Internal("reshard verification failed: digest " + before +
                            " != rebuilt " + after +
                            "; collection left unchanged");
  }

  // 4. Swap. Every new shard holds documents whose updates were
  // applied up to at least the collection-wide floor; per-shard floors
  // above it are discarded conservatively (replay is reconciling).
  uint64_t floor = applied_seq();
  shard_map_ = new_map;
  shards_ = std::move(new_shards);
  applied_seq_.assign(m, floor);
  return Status::OK();
}

}  // namespace sdms::irs

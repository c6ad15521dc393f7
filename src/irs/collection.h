#ifndef SDMS_IRS_COLLECTION_H_
#define SDMS_IRS_COLLECTION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "irs/analysis/analyzer.h"
#include "irs/index/inverted_index.h"
#include "irs/model/retrieval_model.h"
#include "irs/shard_map.h"

namespace sdms {
class ThreadPool;
}

namespace sdms::irs {

/// One document of a batch indexing call.
struct BatchDocument {
  std::string key;
  std::string text;
};

/// One ranked search hit: external document key (the OID string) and
/// its IRS value.
struct SearchHit {
  std::string key;
  double score = 0.0;
};

/// Usage counters of a collection (benches read these).
struct CollectionStats {
  uint64_t docs_indexed = 0;
  uint64_t docs_removed = 0;
  uint64_t queries_executed = 0;
};

/// Profile stage name for one shard's slice of a fan-out search
/// ("irs_search/shard<i>"); the pointer is stable for the process
/// lifetime, as ProfileStageScope requires.
const char* ShardSearchStageName(size_t shard);

/// Fault injection point name for one shard's search
/// ("irs.search.shard<i>"); stable for the process lifetime.
const char* ShardSearchFaultPoint(size_t shard);

/// Collects every window (#odN/#uwN) node of a parsed tree in
/// deterministic pre-order. Both PrepareSearch and the wire-statistics
/// decoder key window df by this traversal, which is why a remote
/// shard server that re-parses the same query with the same analyzer
/// attaches the router's window statistics to the right nodes.
void CollectWindowNodes(const QueryNode& node,
                        std::vector<const QueryNode*>& out);

/// An IRS collection in the paper's sense: an independent set of flat
/// text documents with its own analyzer and retrieval model.
///
/// Documents are partitioned across N shards (SDMS_SHARDS, default 1)
/// by a stable hash of their external key (ShardMap). Each shard is a
/// self-contained InvertedIndex — its own postings, doc table,
/// tombstones, and exactly-once high-water mark — so one shard is an
/// independent failure domain: a caller can search the surviving
/// shards and merge while one shard is faulted.
///
/// Searches split into PrepareSearch (parse once, snapshot *global*
/// corpus statistics) and per-shard SearchShard calls; because every
/// retrieval model scores from the injected global statistics, a
/// document's score is identical no matter which shard holds it, and
/// the merged N-shard top-k is bit-identical to the unsharded ranking.
class IrsCollection {
 public:
  IrsCollection(std::string name, AnalyzerOptions analyzer_options,
                std::unique_ptr<RetrievalModel> model,
                uint32_t num_shards = ShardsFromEnv());

  const std::string& name() const { return name_; }
  const Analyzer& analyzer() const { return analyzer_; }
  const RetrievalModel& model() const { return *model_; }
  const CollectionStats& stats() const { return stats_; }

  /// Shard-0 view. With one shard (the default) this is the whole
  /// collection — existing single-index tests and benches read it.
  const InvertedIndex& index() const { return *shards_[0]; }

  size_t num_shards() const { return shards_.size(); }
  const InvertedIndex& shard(size_t s) const { return *shards_[s]; }
  const ShardMap& shard_map() const { return shard_map_; }

  /// Shard owning `key` under the current map.
  uint32_t ShardOfKey(const std::string& key) const {
    return shard_map_.ShardOf(key);
  }

  /// Re-partitions an *empty* collection into `n` shards (tests, the
  /// simulation harness). Fails once any document has been indexed:
  /// the shard map is a durable property of the data.
  Status SetNumShards(uint32_t n);

  /// Exchanges the retrieval paradigm (loose-coupling flexibility).
  void set_model(std::unique_ptr<RetrievalModel> model) {
    model_ = std::move(model);
  }

  /// Indexes `text` under `key`. Fails if the key is present.
  Status AddDocument(const std::string& key, const std::string& text);

  /// Bulk indexing: analysis fans out across `pool` (DefaultThreadPool()
  /// when omitted, sequential when that is null), then each shard's
  /// slice of the batch is built via InvertedIndex::AddDocumentsBatch.
  /// Per shard the result is identical to adding that shard's documents
  /// one by one in `docs` order. Fails without side effects if a key is
  /// already present or occurs twice in the batch.
  Status AddDocumentsBatch(const std::vector<BatchDocument>& docs,
                           ThreadPool* pool = nullptr);

  /// Switches every shard between tombstone deletes with threshold
  /// compaction (default) and the paper's eager dictionary-scan delete.
  void set_eager_delete(bool eager);

  /// Prunes tombstoned postings now; returns tombstones cleared
  /// (summed over shards).
  size_t CompactIndex();

  /// Replaces the document under `key` (remove + re-add).
  Status UpdateDocument(const std::string& key, const std::string& text);

  /// Removes the document under `key`.
  Status RemoveDocument(const std::string& key);

  bool HasDocument(const std::string& key) const {
    return shards_[ShardOfKey(key)]->FindByKey(key).ok();
  }

  /// Live documents across all shards.
  uint64_t doc_count() const;

  /// Approximate memory footprint summed over shards.
  size_t ApproximateSizeBytes() const;

  /// Iterates every live document across all shards:
  /// fn(shard, DocId, DocInfo). DocIds are only meaningful within
  /// their shard.
  template <typename Fn>
  void ForEachDoc(Fn&& fn) const {
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->ForEachDoc(
          [&](DocId id, const DocInfo& info) { fn(s, id, info); });
    }
  }

  /// A parsed query plus the global statistics every shard scores
  /// against. Built once per query; shared (read-only) by all
  /// per-shard SearchShard calls — window statistics are keyed by
  /// nodes of this plan's tree.
  struct SearchPlan {
    std::unique_ptr<QueryNode> tree;
    CorpusStats corpus;
    size_t k = 0;  // 0 = unbounded
  };

  /// Parses `query` and snapshots corpus-wide statistics (document
  /// count, token count, per-term df, per-window-node df). Counts the
  /// query in stats()/metrics.
  StatusOr<SearchPlan> PrepareSearch(const std::string& query, size_t k);

  /// Evaluates the plan on one shard, returning that shard's hits
  /// ranked by (score desc, key asc), truncated to plan.k when k > 0.
  /// Checks the "irs.search" and "irs.search.shard<i>" fault points
  /// and the current QueryContext. Safe to call concurrently for
  /// *different* shards of the same plan.
  StatusOr<std::vector<SearchHit>> SearchShard(const SearchPlan& plan,
                                               size_t shard);

  /// Merges per-shard ranked hit lists into one ranking — (score desc,
  /// key asc), truncated to `k` when k > 0. Keys are disjoint across
  /// shards, so this is a pure merge.
  static std::vector<SearchHit> MergeShardHits(
      std::vector<std::vector<SearchHit>> per_shard, size_t k);

  // --- Remote shard serving (protocol v3) -------------------------------

  /// Wire form of a plan's global corpus statistics (doc count, token
  /// count, per-term df, window df in CollectWindowNodes order).
  /// Shipped with the query string to remote shard servers, whose
  /// scoring against these injected statistics is bit-identical to a
  /// local SearchShard of the same plan.
  static std::string EncodePlanStats(const SearchPlan& plan);

  /// Rebuilds a SearchPlan from a query string plus wire statistics:
  /// parses with this collection's analyzer and attaches the decoded
  /// statistics instead of computing local ones. kCorruption when the
  /// statistics don't decode or don't match the parsed tree's shape
  /// (window count) — the two sides must share query and analyzer.
  StatusOr<SearchPlan> PrepareSearchWithStats(const std::string& query,
                                              size_t k,
                                              std::string_view stats);

  /// Serialized image of one shard's index (pair it with
  /// shard_applied_seq(s)) — the remote catch-up full-install payload.
  StatusOr<std::string> SerializeShard(size_t shard) const;

  /// Atomically replaces shard `shard` with a deserialized image and
  /// its applied-seq floor. On a decode error the current shard is
  /// untouched. Used by shard servers installing router state.
  Status InstallShard(size_t shard, std::string_view index_bytes,
                      uint64_t seq);

  /// Rebalances the collection to `m` shards as a rebuild pipeline:
  /// every live document's analyzed token sequence is reconstructed
  /// from its positional postings, indexed into a fresh m-shard
  /// layout, and the new layout's CanonicalDigest is verified equal to
  /// the current one *before* the swap — a failed verify leaves the
  /// collection unchanged. Applied-seq floors carry over conservatively
  /// (every new shard starts at the collection-wide minimum floor).
  Status Reshard(uint32_t m);

  /// Evaluates an IRS query, returning hits ranked by descending score
  /// (ties broken by key for determinism). Fans out across all shards
  /// (through the default thread pool) and merges; any shard failure
  /// fails the whole search — per-shard degradation is the coupling
  /// layer's job (it drives SearchShard itself, one guard per shard).
  StatusOr<std::vector<SearchHit>> Search(const std::string& query);

  /// Top-k variant: each shard keeps only its `k` best hits with a
  /// bounded heap. The merged result equals the first k entries of
  /// Search(query); k == 0 means unbounded.
  StatusOr<std::vector<SearchHit>> Search(const std::string& query, size_t k);

  /// Highest database update-event sequence number whose effect is
  /// known to be reflected in *every* shard (the exactly-once
  /// high-water mark): the minimum over per-shard marks. Persisted
  /// with the index so crash recovery can tell which update events
  /// are already applied. 0 = nothing sequenced yet.
  uint64_t applied_seq() const;

  /// Per-shard high-water mark.
  uint64_t shard_applied_seq(size_t shard) const {
    return applied_seq_[shard];
  }

  /// Monotonic bump of every shard's mark (unsharded callers).
  void set_applied_seq(uint64_t seq);

  /// Monotonic bump of one shard's mark — shard-isolated propagation
  /// advances only the shards it actually applied to.
  void set_shard_applied_seq(size_t shard, uint64_t seq) {
    if (seq > applied_seq_[shard]) applied_seq_[shard] = seq;
  }

  /// Content digest of the collection, independent of DocId
  /// assignment, build history, *and shard count*: canonical doc and
  /// posting lines are merged across shards before hashing, so an
  /// N-shard collection digests identically to an unsharded one
  /// holding the same documents.
  std::string CanonicalDigest() const;

  /// Structural invariants of every shard plus the routing invariant
  /// (each document lives in the shard its key hashes to). Empty
  /// string when consistent.
  std::string CheckInvariants() const;

  /// Serializes shard map + per-shard applied_seq + per-shard index
  /// (analyzer/model are configuration and are re-supplied at load).
  /// The snapshot's shard layout always wins over the current
  /// SDMS_SHARDS setting. Serialize fails when a postings block cannot
  /// be decoded; RestoreIndex refuses any blob that is not this
  /// sharded format with kCorruption and leaves the collection as it
  /// was.
  StatusOr<std::string> Serialize() const;
  Status RestoreIndex(std::string_view data);

 private:
  /// Fresh empty shard respecting the collection's eager-delete mode,
  /// with per-index threshold compaction disabled — the collection
  /// drives compaction globally (MaybeCompactShards) so corpus
  /// statistics stay identical across shard layouts.
  std::unique_ptr<InvertedIndex> NewShard() const;

  /// CanonicalDigest over an arbitrary shard vector (Reshard verifies
  /// the rebuilt layout before swapping it in).
  static std::string DigestShards(
      const std::vector<std::unique_ptr<InvertedIndex>>& shards);

  /// Applies InvertedIndex::kCompactionRatio over collection-global
  /// tombstone/doc-table counts and compacts every shard together when
  /// it trips. Layout-independent: for one shard this is exactly the
  /// index's own auto-compaction check.
  void MaybeCompactShards();

  std::string name_;
  Analyzer analyzer_;
  std::unique_ptr<RetrievalModel> model_;
  ShardMap shard_map_;
  std::vector<std::unique_ptr<InvertedIndex>> shards_;
  std::vector<uint64_t> applied_seq_;
  CollectionStats stats_;
  bool eager_delete_ = false;
};

}  // namespace sdms::irs

#endif  // SDMS_IRS_COLLECTION_H_

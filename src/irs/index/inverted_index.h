#ifndef SDMS_IRS_INDEX_INVERTED_INDEX_H_
#define SDMS_IRS_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "irs/index/block_postings.h"

namespace sdms {
class ThreadPool;
}

namespace sdms::irs {

/// Per-document bookkeeping.
struct DocInfo {
  /// External key — the OODBMS object identifier string ("oid:n"). The
  /// paper stores the OID as IRS-document meta data (Section 4.3).
  std::string key;
  /// Document length in analyzed tokens.
  uint32_t length = 0;
  bool alive = false;
};

/// One document of a batch insert: external key plus analyzed tokens.
struct DocTokens {
  std::string key;
  std::vector<std::string> tokens;
};

/// A positional inverted index over analyzed token streams. Documents
/// are added as token vectors (analysis happens in IrsCollection).
///
/// Postings are held as block-compressed lists (BlockPostingsList):
/// ~128 postings per block, delta+varbyte encoded, with per-block
/// last_doc / max_tf / min_doc_len metadata so the query kernels can
/// skip whole blocks without decoding them. Every block is
/// memory-resident; the checksum-envelope `.idx` snapshot produced by
/// Serialize() is the only on-disk form of the postings.
///
/// Deletion strategies (Section 4.3.1, option 3 — "deleting IRS
/// documents is costly"):
///   * eager (set_eager_delete(true)): the paper's architecture — every
///     removal rewrites all postings lists pruning the document
///     immediately;
///   * tombstone (default): removal only marks the document dead;
///     postings are pruned by Compact(), triggered automatically when
///     tombstoned documents exceed kCompactionRatio of the doc table.
/// Between a tombstone delete and the next compaction, cursors and
/// DocFreq still see the dead document's postings; result-producing
/// callers (IrsCollection::Search and the retrieval models) filter dead
/// documents, so hit sets are exact while corpus statistics (df) may
/// briefly include tombstones.
class InvertedIndex {
 public:
  /// Fraction of the doc table that may be tombstoned before an
  /// automatic Compact() (checked after each tombstone delete).
  static constexpr double kCompactionRatio = 0.25;

  InvertedIndex();
  ~InvertedIndex();
  InvertedIndex(InvertedIndex&& other) noexcept;
  InvertedIndex& operator=(InvertedIndex&& other) noexcept;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Adds a document; returns its internal id.
  DocId AddDocument(const std::string& key,
                    const std::vector<std::string>& tokens);

  /// Bulk insert: assigns consecutive doc ids in `docs` order, builds
  /// per-shard postings lists on `pool` (sequentially when null) and
  /// splices them in doc-id order, so the decoded postings are
  /// identical to adding the documents one by one. Keys must be
  /// distinct and absent from the index. Returns the ids in input
  /// order.
  StatusOr<std::vector<DocId>> AddDocumentsBatch(
      const std::vector<DocTokens>& docs, ThreadPool* pool = nullptr);

  /// Removes document `id` — tombstone or eager prune depending on
  /// set_eager_delete().
  Status RemoveDocument(DocId id);

  /// Prunes the postings of every tombstoned document now. Returns the
  /// number of tombstones cleared; 0 (tombstones retained, index
  /// unchanged) when a postings block fails to decode — the prune is
  /// retried by a later Compact().
  size_t Compact();

  /// Switches between the paper's eager rewrite-on-delete and
  /// tombstone + threshold compaction (the default).
  void set_eager_delete(bool eager) { eager_delete_ = eager; }
  bool eager_delete() const { return eager_delete_; }

  /// Disables the per-index threshold compaction after tombstone
  /// deletes. A sharded IrsCollection owns the decision instead: the
  /// 25% ratio evaluated over shard-local counts fires at different
  /// points for different shard layouts, and DocFreq (which includes
  /// tombstones until the prune) would then diverge from the unsharded
  /// corpus statistics. The collection re-applies the same ratio over
  /// collection-global counts and compacts every shard together, so
  /// rankings stay layout-independent. Tombstones still prune via
  /// Compact().
  void set_auto_compact(bool on) { auto_compact_ = on; }
  bool auto_compact() const { return auto_compact_; }

  /// Size of the doc table including dead entries — the denominator of
  /// the compaction ratio. Doc ids are never reclaimed, so this is the
  /// number of documents ever added and sums across shards to exactly
  /// the unsharded table size.
  size_t doc_table_size() const { return docs_.size(); }

  /// Dead documents whose postings are not yet pruned.
  size_t tombstone_count() const { return tombstones_; }

  /// Looks up the internal id of an external key.
  StatusOr<DocId> FindByKey(const std::string& key) const;

  /// Block-compressed postings list for `term` (nullptr if unknown).
  /// Metadata access only — nothing is decoded. May include tombstoned
  /// documents until the next Compact().
  const BlockPostingsList* GetPostingsList(const std::string& term) const;

  /// Lazy cursor over `term`'s postings (empty cursor if unknown).
  PostingsCursor OpenCursor(const std::string& term) const;

  /// Document frequency of `term` (including tombstones, see above).
  /// Served from list metadata — no block is decoded.
  uint32_t DocFreq(const std::string& term) const;

  /// Info for document `id`.
  StatusOr<const DocInfo*> GetDoc(DocId id) const;

  /// True when `id` names a live document.
  bool IsAlive(DocId id) const {
    return id < docs_.size() && docs_[id].alive;
  }

  /// Number of live documents.
  uint32_t doc_count() const { return live_docs_; }

  /// Average live-document length in tokens.
  double avg_doc_length() const;

  /// Number of distinct terms (including terms whose only postings are
  /// tombstoned; converges after Compact()).
  size_t term_count() const { return dictionary_.size(); }

  /// Total token occurrences indexed (live docs).
  uint64_t total_tokens() const { return total_tokens_; }

  /// Approximate main-memory footprint in bytes: dictionary + encoded
  /// block payloads + block metadata + doc table. Also refreshes the
  /// process-wide irs.index.memory_bytes gauge (delta-tracked per
  /// index). Used by the redundancy experiment (E8).
  size_t ApproximateSizeBytes() const;

  /// Iterates all live documents.
  template <typename Fn>
  void ForEachDoc(Fn&& fn) const {
    for (DocId id = 0; id < docs_.size(); ++id) {
      if (docs_[id].alive) fn(id, docs_[id]);
    }
  }

  /// Iterates the dictionary in term order (persistence, tests),
  /// passing each term's BlockPostingsList. Postings may include
  /// tombstoned documents.
  template <typename Fn>
  void ForEachTerm(Fn&& fn) const {
    for (const auto* entry : SortedTerms()) fn(entry->first, entry->second);
  }

  /// Serializes to a binary blob / restores from one. The serialized
  /// form is always compacted (tombstoned postings are skipped), so
  /// tombstone and eager indexes over the same documents serialize
  /// identically. The format predates block storage and is unchanged:
  /// snapshots round-trip across versions. Fails when a block cannot
  /// be decoded.
  StatusOr<std::string> Serialize() const;
  static StatusOr<InvertedIndex> Deserialize(std::string_view data);

  /// Structural invariants (sorted postings, tf == positions.size(),
  /// doc lengths consistent, dead postings only for pending
  /// tombstones, block metadata matching decoded content). Empty
  /// string when consistent.
  std::string CheckInvariants() const;

  /// Content digest independent of internal DocId assignment and
  /// insertion/compaction history: live documents and their postings
  /// are canonicalized by external key and term before hashing. Two
  /// indexes holding the same documents with the same token streams
  /// digest identically, no matter in which order (or through how many
  /// remove/re-add cycles) they were built. This is the "bit-identical
  /// to the fault-free oracle" comparison of the simulation harness.
  std::string CanonicalDigest() const;

  /// One live posting in canonical form: term, owning document's
  /// external key, and the "tf pos pos..." payload. The canonical
  /// order is (term, key) — DocId-free, so entries from different
  /// shards merge into the same canonical stream.
  struct CanonicalPosting {
    std::string term;
    std::string key;
    std::string payload;
  };

  /// Appends every live document as (key, length) — the "d" lines of
  /// the canonical serialization, unsorted.
  void CollectCanonicalDocs(
      std::vector<std::pair<std::string, uint32_t>>& out) const;

  /// Appends every live posting in canonical form, unsorted. Returns
  /// the first decode error (entries from undecodable blocks are
  /// skipped); the caller must fold it into FinishCanonicalDigest so a
  /// corrupt index can never digest equal to a healthy one.
  Status CollectCanonicalPostings(std::vector<CanonicalPosting>& out) const;

  /// Sorts the collected entries, renders the canonical serialization,
  /// and hashes it — the shared tail of CanonicalDigest() and the
  /// cross-shard collection digest.
  static std::string FinishCanonicalDigest(
      std::vector<std::pair<std::string, uint32_t>> docs,
      std::vector<CanonicalPosting> postings, const Status& decode_error);

 private:
  using DictEntry = std::pair<const std::string, BlockPostingsList>;

  /// Dictionary entries ordered by term, cached with a dirty flag —
  /// mutations invalidate, the next call rebuilds once (persistence
  /// and digest paths call this repeatedly).
  const std::vector<const DictEntry*>& SortedTerms() const;
  void InvalidateSortedTerms() {
    std::lock_guard<std::mutex> lock(sorted_terms_mu_);
    sorted_terms_dirty_ = true;
  }

  /// Appends `tokens` of document `id` (of length `doc_len`) into
  /// `dict`, positions grouped per term. Shared by the single and
  /// batch insert paths.
  static void AccumulatePostings(
      DocId id, const std::vector<std::string>& tokens,
      std::unordered_map<std::string, BlockPostingsList>& dict);

  /// Rebuilds every list without the tombstoned docs. False (index
  /// unchanged, tombstones kept) when any block fails to decode.
  bool PrunePostingsOfDeadDocs();
  void MaybeCompact();

  // Term -> block-compressed postings; hashed for the query hot path,
  // with SortedTerms() providing the deterministic iteration order that
  // serialization and tests need.
  std::unordered_map<std::string, BlockPostingsList> dictionary_;
  std::vector<DocInfo> docs_;
  std::unordered_map<std::string, DocId> by_key_;
  /// Dead docs whose postings still sit in the dictionary.
  std::vector<bool> pending_prune_;
  uint32_t live_docs_ = 0;
  uint64_t total_tokens_ = 0;
  size_t tombstones_ = 0;
  bool eager_delete_ = false;
  bool auto_compact_ = true;

  /// SortedTerms() cache (satellite: persistence profiles showed the
  /// sort rebuilt on every snapshot). Guarded so concurrent readers can
  /// fill it; mutations happen under writer exclusivity.
  mutable std::mutex sorted_terms_mu_;
  mutable std::vector<const DictEntry*> sorted_terms_;
  mutable bool sorted_terms_dirty_ = true;

  /// Last footprint reported into the irs.index.memory_bytes gauge.
  mutable int64_t reported_memory_bytes_ = 0;
};

}  // namespace sdms::irs

#endif  // SDMS_IRS_INDEX_INVERTED_INDEX_H_

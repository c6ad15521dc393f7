#ifndef SDMS_IRS_INDEX_BLOCK_POSTINGS_H_
#define SDMS_IRS_INDEX_BLOCK_POSTINGS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sdms::irs {

/// Internal document identifier within one index.
using DocId = uint32_t;

/// One posting: a document and the term's occurrences in it.
struct Posting {
  DocId doc = 0;
  uint32_t tf = 0;
  /// Word positions (0-based, post-analysis); enables phrase/proximity
  /// extensions and makes the on-disk format realistic.
  std::vector<uint32_t> positions;
};

/// Metadata of one postings block — everything the query kernels need
/// to decide whether the block must be decoded at all. `last_doc`
/// drives doc-id skipping (galloping intersection, SkipTo); `max_tf`
/// and `min_doc_len` bound any tf/length-monotone score contribution
/// from the block (Block-Max-WAND-style pruning).
struct PostingsBlockMeta {
  DocId first_doc = 0;
  DocId last_doc = 0;
  uint32_t count = 0;
  uint32_t max_tf = 0;
  uint32_t min_doc_len = 0xffffffffu;
  /// Encoded payload.
  std::string bytes;
};

/// A postings list stored as a sequence of delta+varbyte encoded
/// blocks of up to kBlockPostings postings each, held in memory.
/// Doc ids must be appended in strictly increasing order.
class BlockPostingsList {
 public:
  static constexpr uint32_t kBlockPostings = 128;

  void Append(DocId doc, uint32_t tf, const std::vector<uint32_t>& positions,
              uint32_t doc_len);

  /// Splices `other`'s blocks after this list's (batch-shard merge; all
  /// of `other`'s doc ids must exceed last_doc()). Blocks are moved
  /// as-is, so a shard boundary may leave a partially filled block in
  /// the middle of the list — block sizes are metadata, not format.
  void AppendList(BlockPostingsList&& other);

  size_t size() const { return total_; }
  bool empty() const { return total_ == 0; }
  DocId last_doc() const;
  /// Maximum term frequency across the whole list (0 when empty).
  uint32_t max_tf() const;
  /// Minimum length of any document in the list (UINT32_MAX when empty).
  uint32_t min_doc_len() const;

  size_t block_count() const { return blocks_.size(); }
  const PostingsBlockMeta& block(size_t i) const { return blocks_[i]; }
  const std::vector<PostingsBlockMeta>& blocks() const { return blocks_; }

  /// Decodes block `i`, appending its postings to `out`. Charges the
  /// postings_scanned / blocks_decoded accounting.
  Status DecodeBlockInto(size_t i, std::vector<Posting>& out) const;

  /// Decodes the whole list (compaction, serialization, digests,
  /// invariant checks and the oracle tests). Scorers read postings
  /// through PostingsCursor instead.
  StatusOr<std::vector<Posting>> DecodeAll() const;

  /// Main-memory footprint: block metadata plus encoded payloads.
  size_t ApproxMemoryBytes() const;

 private:
  std::vector<PostingsBlockMeta> blocks_;
  uint64_t total_ = 0;
};

/// Forward iterator over a BlockPostingsList that decodes lazily: a
/// block's payload is only decoded when the cursor actually positions
/// inside it, and SkipTo gallops over whole blocks using last_doc
/// metadata. Decode failures (a corrupt block) latch into status() and
/// exhaust the cursor.
class PostingsCursor {
 public:
  PostingsCursor() = default;
  /// `list` may be null (empty cursor). The first block is NOT decoded
  /// until an accessor needs it, so block-level inspection stays free.
  explicit PostingsCursor(const BlockPostingsList* list);

  bool AtEnd() const {
    return list_ == nullptr || block_ >= list_->block_count();
  }

  /// Accessors decode the current block on first use. Only valid while
  /// !AtEnd().
  DocId doc();
  uint32_t tf();
  const std::vector<uint32_t>& positions();

  void Next();

  /// Advances to the first posting with doc >= target. Whole blocks
  /// whose last_doc < target are skipped without decoding. Returns
  /// false when the list is exhausted.
  bool SkipTo(DocId target);

  // --- Block-level operations (never decode) -------------------------

  /// Advances the block position until block_last_doc() >= target.
  /// Returns false (cursor exhausted) when no block qualifies.
  bool AdvanceBlocksTo(DocId target);

  DocId block_first_doc() const { return Meta().first_doc; }
  DocId block_last_doc() const { return Meta().last_doc; }
  uint32_t block_max_tf() const { return Meta().max_tf; }
  uint32_t block_min_doc_len() const { return Meta().min_doc_len; }

  /// Total postings in the underlying list (0 for a null cursor).
  size_t size() const { return list_ == nullptr ? 0 : list_->size(); }

  /// Sticky decode error; OK while the cursor has only seen healthy
  /// blocks. Kernels surface it after iteration.
  const Status& status() const { return status_; }

 private:
  const PostingsBlockMeta& Meta() const { return list_->block(block_); }
  /// Decodes the current block if needed; false on error (cursor ends).
  bool EnsureDecoded();
  /// Accounts `n` blocks passed over without decoding.
  static void CountSkipped(size_t n);

  const BlockPostingsList* list_ = nullptr;
  size_t block_ = 0;
  size_t pos_ = 0;
  std::vector<Posting> decoded_;
  size_t decoded_block_ = static_cast<size_t>(-1);
  Status status_;
};

/// Walks `cursor` to its end, calling fn(doc, tf) for every posting in
/// doc order: each block is decoded exactly once and none is skipped.
/// Returns the cursor's decode status (OK for a healthy list).
template <typename Fn>
Status WalkPostings(PostingsCursor cursor, Fn&& fn) {
  for (; !cursor.AtEnd(); cursor.Next()) {
    DocId doc = cursor.doc();
    if (cursor.AtEnd()) break;  // decode failure latched by doc()
    fn(doc, cursor.tf());
  }
  return cursor.status();
}

}  // namespace sdms::irs

#endif  // SDMS_IRS_INDEX_BLOCK_POSTINGS_H_

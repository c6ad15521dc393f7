#include "irs/index/block_postings.h"

#include <algorithm>

#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "irs/index/postings_codec.h"

namespace sdms::irs {

namespace {

obs::Counter& PostingsScanned() {
  static obs::Counter& c = obs::GetCounter("irs.index.postings_scanned");
  return c;
}

obs::Counter& BlocksDecoded() {
  static obs::Counter& c = obs::GetCounter("irs.index.blocks_decoded");
  return c;
}

obs::Counter& BlocksSkipped() {
  static obs::Counter& c = obs::GetCounter("irs.index.blocks_skipped");
  return c;
}

}  // namespace

void BlockPostingsList::Append(DocId doc, uint32_t tf,
                               const std::vector<uint32_t>& positions,
                               uint32_t doc_len) {
  if (blocks_.empty() || blocks_.back().count >= kBlockPostings) {
    PostingsBlockMeta meta;
    meta.first_doc = doc;
    meta.last_doc = doc;
    blocks_.push_back(std::move(meta));
  }
  PostingsBlockMeta& b = blocks_.back();
  DocId prev = b.count == 0 ? doc : b.last_doc;
  codec::AppendPosting(b.bytes, prev, doc, tf, positions);
  b.last_doc = doc;
  ++b.count;
  b.max_tf = std::max(b.max_tf, tf);
  b.min_doc_len = std::min(b.min_doc_len, doc_len);
  ++total_;
}

void BlockPostingsList::AppendList(BlockPostingsList&& other) {
  blocks_.reserve(blocks_.size() + other.blocks_.size());
  for (PostingsBlockMeta& b : other.blocks_) {
    blocks_.push_back(std::move(b));
  }
  total_ += other.total_;
  other.blocks_.clear();
  other.total_ = 0;
}

DocId BlockPostingsList::last_doc() const {
  return blocks_.empty() ? 0 : blocks_.back().last_doc;
}

uint32_t BlockPostingsList::max_tf() const {
  uint32_t m = 0;
  for (const PostingsBlockMeta& b : blocks_) m = std::max(m, b.max_tf);
  return m;
}

uint32_t BlockPostingsList::min_doc_len() const {
  uint32_t m = 0xffffffffu;
  for (const PostingsBlockMeta& b : blocks_) m = std::min(m, b.min_doc_len);
  return m;
}

Status BlockPostingsList::DecodeBlockInto(size_t i,
                                          std::vector<Posting>& out) const {
  const PostingsBlockMeta& b = blocks_[i];
  SDMS_RETURN_IF_ERROR(codec::DecodeBlock(b.bytes, b.first_doc, b.count, out));
  PostingsScanned().Add(b.count);
  BlocksDecoded().Increment();
  obs::ProfileCount("postings_scanned", b.count);
  obs::ProfileCount("blocks_decoded");
  return Status::OK();
}

StatusOr<std::vector<Posting>> BlockPostingsList::DecodeAll() const {
  std::vector<Posting> out;
  out.reserve(total_);
  for (size_t i = 0; i < blocks_.size(); ++i) {
    SDMS_RETURN_IF_ERROR(DecodeBlockInto(i, out));
  }
  return out;
}

size_t BlockPostingsList::ApproxMemoryBytes() const {
  size_t bytes = sizeof(BlockPostingsList);
  for (const PostingsBlockMeta& b : blocks_) {
    bytes += sizeof(PostingsBlockMeta) + b.bytes.capacity();
  }
  return bytes;
}

PostingsCursor::PostingsCursor(const BlockPostingsList* list) : list_(list) {
  if (list_ != nullptr && list_->block_count() == 0) list_ = nullptr;
}

void PostingsCursor::CountSkipped(size_t n) {
  if (n == 0) return;
  BlocksSkipped().Add(n);
  obs::ProfileCount("blocks_skipped", n);
}

bool PostingsCursor::EnsureDecoded() {
  if (decoded_block_ == block_) return true;
  decoded_.clear();
  Status s = list_->DecodeBlockInto(block_, decoded_);
  if (!s.ok()) {
    status_ = s;
    block_ = list_->block_count();  // exhaust
    return false;
  }
  decoded_block_ = block_;
  return true;
}

DocId PostingsCursor::doc() {
  if (!EnsureDecoded()) return 0;  // cursor now AtEnd with status() set
  return decoded_[pos_].doc;
}

uint32_t PostingsCursor::tf() {
  if (!EnsureDecoded()) return 0;
  return decoded_[pos_].tf;
}

const std::vector<uint32_t>& PostingsCursor::positions() {
  static const std::vector<uint32_t> kEmpty;
  if (!EnsureDecoded()) return kEmpty;
  return decoded_[pos_].positions;
}

void PostingsCursor::Next() {
  if (AtEnd() || !EnsureDecoded()) return;
  if (++pos_ >= decoded_.size()) {
    ++block_;
    pos_ = 0;
  }
}

bool PostingsCursor::AdvanceBlocksTo(DocId target) {
  if (AtEnd()) return false;
  if (Meta().last_doc >= target) return true;
  // Gallop over the block metadata: exponential probe then binary
  // search on last_doc. The blocks passed over are never decoded.
  size_t n = list_->block_count();
  size_t lo = block_ + 1;
  size_t step = 1;
  size_t hi = lo;
  while (hi < n && list_->block(hi).last_doc < target) {
    lo = hi + 1;
    hi = block_ + (step <<= 1);
  }
  hi = std::min(hi, n);
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (list_->block(mid).last_doc < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  size_t undecoded_current = decoded_block_ == block_ ? 0 : 1;
  size_t landing = lo;
  if (landing >= n) {
    CountSkipped(n - block_ - 1 + undecoded_current);
    block_ = n;
    pos_ = 0;
    return false;
  }
  CountSkipped(landing - block_ - 1 + undecoded_current);
  block_ = landing;
  pos_ = 0;
  return true;
}

bool PostingsCursor::SkipTo(DocId target) {
  if (AtEnd()) return false;
  // Fast path: the target is inside the block we are positioned in.
  if (Meta().last_doc >= target) {
    if (!EnsureDecoded()) return false;
    // The current posting may already satisfy the target.
    if (decoded_[pos_].doc >= target) return true;
    auto it = std::lower_bound(
        decoded_.begin() + static_cast<ptrdiff_t>(pos_) + 1, decoded_.end(),
        target, [](const Posting& p, DocId d) { return p.doc < d; });
    pos_ = static_cast<size_t>(it - decoded_.begin());
    // last_doc >= target guarantees a hit within this block.
    return true;
  }
  if (!AdvanceBlocksTo(target)) return false;
  if (!EnsureDecoded()) return false;
  auto it = std::lower_bound(decoded_.begin(), decoded_.end(), target,
                             [](const Posting& p, DocId d) { return p.doc < d; });
  pos_ = static_cast<size_t>(it - decoded_.begin());
  return true;
}

}  // namespace sdms::irs

#ifndef SDMS_IRS_INDEX_POSTINGS_KERNELS_H_
#define SDMS_IRS_INDEX_POSTINGS_KERNELS_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "irs/index/inverted_index.h"

namespace sdms::irs {

/// Doc-at-a-time conjunction over block-compressed postings lists,
/// read through PostingsCursor — the access path every retrieval model
/// uses. It backs the boolean #and and the candidate generation of the
/// #odN/#uwN windows. The loop polls the current QueryContext every
/// 1024 steps and counts each stop in irs.kernel.early_exits.

/// Conjunction over block cursors, driving a visitor: `visit(doc)` is
/// invoked for every doc present in all lists, with every cursor in
/// `cursors` positioned on that doc — so the visitor can read tf() /
/// positions() directly (the proximity operators do). The rarest list
/// drives; the others SkipTo over it, skipping undecoded blocks.
/// Cancellation returns OK with a partial visit sequence (the caller
/// re-checks its QueryContext); a block decode failure returns that
/// error. Empty `cursors` visits nothing.
Status IntersectCursorsVisit(std::vector<PostingsCursor>& cursors,
                             const std::function<void(DocId)>& visit);

/// Documents present in *every* cursor's list (ascending).
StatusOr<std::vector<DocId>> IntersectCursors(
    std::vector<PostingsCursor> cursors);

}  // namespace sdms::irs

#endif  // SDMS_IRS_INDEX_POSTINGS_KERNELS_H_

#ifndef SDMS_IRS_INDEX_PROXIMITY_H_
#define SDMS_IRS_INDEX_PROXIMITY_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "irs/index/inverted_index.h"

namespace sdms::irs {

/// Proximity matching over the positional postings. These back the
/// #odN/#phrase/#uwN operators: an extension the positional index was
/// built for (INQUERY shipped equivalent operators). All matching runs
/// over block cursors, so only the blocks containing candidate
/// documents are ever decoded.

/// Match frequencies for every document with at least one match: the
/// count of non-overlapping window matches of `terms` in it. `ordered`
/// selects ordered matching (the terms appear in the given order with
/// at most `window` positions between adjacent terms; #phrase ==
/// window 1, i.e. adjacent) vs unordered matching (all terms occur, in
/// any order, within a span of `window` positions). Candidates come
/// from the block-skipping cursor intersection; a block decode failure
/// surfaces as an error status.
StatusOr<std::map<DocId, uint32_t>> WindowMatchFrequencies(
    const InvertedIndex& index, const std::vector<std::string>& terms,
    bool ordered, uint32_t window);

}  // namespace sdms::irs

#endif  // SDMS_IRS_INDEX_PROXIMITY_H_

#include "irs/index/proximity.h"

#include <algorithm>

#include "irs/index/postings_kernels.h"

namespace sdms::irs {

namespace {

/// Core ordered matcher over per-term position lists (one doc).
uint32_t OrderedMatchesIn(
    const std::vector<const std::vector<uint32_t>*>& positions,
    uint32_t max_gap) {
  uint32_t matches = 0;
  // Greedy non-overlapping matching: for each start occurrence of the
  // first term (after the previous match), chain through the remaining
  // terms taking the earliest position within the gap.
  size_t first_idx = 0;
  uint32_t resume_after = 0;
  bool have_resume = false;
  while (first_idx < positions[0]->size()) {
    uint32_t start = (*positions[0])[first_idx];
    if (have_resume && start <= resume_after) {
      ++first_idx;
      continue;
    }
    uint32_t prev = start;
    bool complete = true;
    for (size_t t = 1; t < positions.size(); ++t) {
      const std::vector<uint32_t>& plist = *positions[t];
      auto it = std::upper_bound(plist.begin(), plist.end(), prev);
      if (it == plist.end() || *it - prev > max_gap) {
        complete = false;
        break;
      }
      prev = *it;
    }
    if (complete) {
      ++matches;
      resume_after = prev;
      have_resume = true;
    }
    ++first_idx;
  }
  return matches;
}

/// Core unordered matcher over per-term position lists (one doc).
uint32_t UnorderedMatchesIn(
    const std::vector<const std::vector<uint32_t>*>& positions,
    uint32_t span) {
  size_t nterms = positions.size();
  // Merge all positions tagged by term id.
  std::vector<std::pair<uint32_t, size_t>> merged;  // (position, term idx)
  for (size_t t = 0; t < nterms; ++t) {
    for (uint32_t pos : *positions[t]) merged.emplace_back(pos, t);
  }
  std::sort(merged.begin(), merged.end());
  // Sliding window: find minimal windows covering all terms, count
  // them non-overlapping (advance left past the window after a match).
  std::vector<size_t> in_window(nterms, 0);
  size_t covered = 0;
  uint32_t matches = 0;
  size_t left = 0;
  for (size_t right = 0; right < merged.size(); ++right) {
    if (in_window[merged[right].second]++ == 0) ++covered;
    // Shrink from the left while still covering.
    while (covered == nterms) {
      uint32_t window_span = merged[right].first - merged[left].first + 1;
      if (window_span <= span) {
        ++matches;
        // Non-overlapping: drop everything up to `right`.
        for (size_t i = left; i <= right; ++i) {
          if (--in_window[merged[i].second] == 0) --covered;
        }
        left = right + 1;
        break;
      }
      if (--in_window[merged[left].second] == 0) --covered;
      ++left;
    }
  }
  return matches;
}

/// One cursor per term, or an empty vector when any term is absent
/// (no window can match then).
std::vector<PostingsCursor> OpenCursors(const InvertedIndex& index,
                                        const std::vector<std::string>& terms) {
  std::vector<PostingsCursor> cursors;
  cursors.reserve(terms.size());
  for (const std::string& t : terms) {
    PostingsCursor c = index.OpenCursor(t);
    if (c.AtEnd()) return {};
    cursors.push_back(std::move(c));
  }
  return cursors;
}

/// Position-list pointers for cursors already placed on one document.
/// The references stay valid until a cursor moves again, so they are
/// collected only after *all* cursors are placed.
std::vector<const std::vector<uint32_t>*> PositionsView(
    std::vector<PostingsCursor>& cursors) {
  std::vector<const std::vector<uint32_t>*> positions;
  positions.reserve(cursors.size());
  for (PostingsCursor& c : cursors) positions.push_back(&c.positions());
  return positions;
}

}  // namespace

StatusOr<std::map<DocId, uint32_t>> WindowMatchFrequencies(
    const InvertedIndex& index, const std::vector<std::string>& terms,
    bool ordered, uint32_t window) {
  std::map<DocId, uint32_t> out;
  if (terms.size() < 2) return out;
  // Candidate generation: a window match needs every term, so the
  // candidates are exactly the cursor intersection — whole blocks that
  // cannot contain a common document are skipped without decoding.
  // The visitor fires with every cursor positioned on the candidate,
  // so the position lists are read straight out of the cursors.
  std::vector<PostingsCursor> cursors = OpenCursors(index, terms);
  if (cursors.empty()) return out;
  SDMS_RETURN_IF_ERROR(IntersectCursorsVisit(cursors, [&](DocId doc) {
    std::vector<const std::vector<uint32_t>*> positions =
        PositionsView(cursors);
    uint32_t tf = ordered ? OrderedMatchesIn(positions, window)
                          : UnorderedMatchesIn(positions, window);
    if (tf > 0) out[doc] = tf;
  }));
  return out;
}

}  // namespace sdms::irs

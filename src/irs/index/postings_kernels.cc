#include "irs/index/postings_kernels.h"

#include <algorithm>

#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/query_context.h"

namespace sdms::irs {

namespace {

/// Cooperative-cancellation poll cadence inside postings loops: cheap
/// enough to be invisible, frequent enough that a cancelled query stops
/// burning CPU within microseconds.
constexpr size_t kCancelCheckStride = 1024;

/// Bumped whenever a kernel abandons its loop because the current
/// QueryContext asked it to stop — the proof that cancellation is
/// observed *inside* the postings kernels, not just at call boundaries.
obs::Counter& EarlyExits() {
  static obs::Counter& c = obs::GetCounter("irs.kernel.early_exits");
  return c;
}

}  // namespace

Status IntersectCursorsVisit(std::vector<PostingsCursor>& cursors,
                             const std::function<void(DocId)>& visit) {
  if (cursors.empty()) return Status::OK();
  for (PostingsCursor& c : cursors) {
    if (c.AtEnd()) return c.status();  // empty list → empty intersection
  }
  // Rarest first: the smallest list drives, the others confirm. The
  // caller's cursor order is preserved (proximity reads positions in
  // term order); only this pointer view is reordered.
  std::vector<PostingsCursor*> ordered;
  ordered.reserve(cursors.size());
  for (PostingsCursor& c : cursors) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const PostingsCursor* a, const PostingsCursor* b) {
              return a->size() < b->size();
            });
  PostingsCursor* driver = ordered[0];
  size_t steps = 0;
  while (!driver->AtEnd()) {
    if (++steps % kCancelCheckStride == 0 && QueryShouldStop()) {
      EarlyExits().Increment();
      obs::ProfileCount("early_exits");
      return Status::OK();  // partial; the caller re-checks the context
    }
    DocId doc = driver->doc();
    if (driver->AtEnd()) break;  // decode failure latched by doc()
    bool in_all = true;
    for (size_t i = 1; i < ordered.size(); ++i) {
      if (!ordered[i]->SkipTo(doc)) {
        // Exhausted (no further matches possible) or decode failure.
        SDMS_RETURN_IF_ERROR(ordered[i]->status());
        return driver->status();
      }
      if (ordered[i]->doc() != doc) {
        in_all = false;
        break;
      }
    }
    if (in_all) visit(doc);
    driver->Next();
  }
  return driver->status();
}

StatusOr<std::vector<DocId>> IntersectCursors(
    std::vector<PostingsCursor> cursors) {
  std::vector<DocId> out;
  SDMS_RETURN_IF_ERROR(IntersectCursorsVisit(
      cursors, [&out](DocId doc) { out.push_back(doc); }));
  return out;
}

}  // namespace sdms::irs

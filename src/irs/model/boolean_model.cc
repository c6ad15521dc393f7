#include <algorithm>

#include "irs/index/postings_kernels.h"
#include "irs/index/proximity.h"
#include "irs/model/retrieval_model.h"

namespace sdms::irs {

namespace {

/// Set-based Boolean retrieval: a document either matches (score 1.0)
/// or does not. #sum/#max/#wsum degrade to OR; #and intersects; #not
/// complements against the live-document set. Sets are sorted DocId
/// vectors; all-term #and conjunctions run the block-cursor
/// intersection kernel directly over the compressed lists, skipping
/// blocks that cannot contain a common document.
class BooleanModel : public RetrievalModel {
 public:
  std::string name() const override { return "boolean"; }

  StatusOr<ScoreMap> Score(const InvertedIndex& index, const QueryNode& query,
                           const CorpusStats* corpus) const override {
    // Boolean matching is statistics-free; #not against the local live
    // set is already correct per shard (the shard-union of local
    // complements is the global complement).
    (void)corpus;
    SDMS_ASSIGN_OR_RETURN(std::vector<DocId> docs, EvalSet(index, query));
    ScoreMap out;
    for (DocId d : docs) {
      if (index.IsAlive(d)) out.emplace_back(d, 1.0);
    }
    return out;
  }

 private:
  using DocSet = std::vector<DocId>;  // sorted ascending, unique

  static DocSet Intersect(const DocSet& a, const DocSet& b) {
    DocSet out;
    out.reserve(std::min(a.size(), b.size()));
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  }

  static DocSet Union(const DocSet& a, const DocSet& b) {
    DocSet out;
    out.reserve(a.size() + b.size());
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(out));
    return out;
  }

  StatusOr<DocSet> EvalSet(const InvertedIndex& index,
                           const QueryNode& node) const {
    switch (node.op) {
      case QueryOp::kTerm: {
        DocSet out;
        out.reserve(index.DocFreq(node.term));
        SDMS_RETURN_IF_ERROR(WalkPostings(
            index.OpenCursor(node.term),
            [&out](DocId doc, uint32_t) { out.push_back(doc); }));
        return out;
      }
      case QueryOp::kAnd: {
        // All-term conjunction: doc-at-a-time galloping intersection
        // straight over the postings lists, no per-child sets.
        bool all_terms = !node.children.empty();
        for (const auto& c : node.children) {
          if (c->op != QueryOp::kTerm) {
            all_terms = false;
            break;
          }
        }
        if (all_terms) {
          std::vector<PostingsCursor> cursors;
          cursors.reserve(node.children.size());
          for (const auto& c : node.children) {
            cursors.push_back(index.OpenCursor(c->term));
          }
          return IntersectCursors(std::move(cursors));
        }
        DocSet acc;
        bool first = true;
        for (const auto& c : node.children) {
          SDMS_ASSIGN_OR_RETURN(DocSet s, EvalSet(index, *c));
          if (first) {
            acc = std::move(s);
            first = false;
          } else {
            acc = Intersect(acc, s);
          }
          if (acc.empty()) break;
        }
        return acc;
      }
      case QueryOp::kOr:
      case QueryOp::kSum:
      case QueryOp::kWsum:
      case QueryOp::kMax: {
        DocSet acc;
        for (const auto& c : node.children) {
          SDMS_ASSIGN_OR_RETURN(DocSet s, EvalSet(index, *c));
          acc = acc.empty() ? std::move(s) : Union(acc, s);
        }
        return acc;
      }
      case QueryOp::kOdn:
      case QueryOp::kUwn: {
        std::vector<std::string> terms;
        node.CollectTerms(terms);
        SDMS_ASSIGN_OR_RETURN(
            auto freqs, WindowMatchFrequencies(index, terms,
                                               node.op == QueryOp::kOdn,
                                               node.window));
        DocSet out;
        for (const auto& [doc, tf] : freqs) {
          out.push_back(doc);  // map iteration is already ascending
        }
        return out;
      }
      case QueryOp::kNot: {
        if (node.children.size() != 1) {
          return Status::InvalidArgument("#not takes exactly one argument");
        }
        SDMS_ASSIGN_OR_RETURN(DocSet inner, EvalSet(index, *node.children[0]));
        DocSet out;
        index.ForEachDoc([&](DocId id, const DocInfo&) {
          if (!std::binary_search(inner.begin(), inner.end(), id)) {
            out.push_back(id);
          }
        });
        return out;
      }
    }
    return Status::Internal("unhandled boolean query node");
  }
};

}  // namespace

std::unique_ptr<RetrievalModel> MakeBooleanModel() {
  return std::make_unique<BooleanModel>();
}

}  // namespace sdms::irs

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/query_context.h"
#include "irs/index/proximity.h"
#include "irs/model/retrieval_model.h"
#include "irs/query/belief_fold.h"

namespace sdms::irs {

namespace {

/// INQUERY-style inference-network model (Turtle/Croft). Term beliefs
/// follow the INQUERY formula
///     bel(t, d) = db + (1 - db) * ntf * nidf
/// with ntf = tf / (tf + 0.5 + 1.5 * dl/avgdl) and
///      nidf = log((N + 0.5) / df) / log(N + 1),
/// and documents not containing a term contribute the default belief
/// `db` (0.4). Operators combine beliefs through CombineBeliefs
/// (irs/query/belief_fold.h), the fold the paper's DBMS-side operators
/// (Section 4.5.4) share.
class InferenceNetModel : public RetrievalModel {
 public:
  explicit InferenceNetModel(double default_belief)
      : default_belief_(default_belief) {}

  std::string name() const override { return "inquery"; }

  StatusOr<ScoreMap> Score(const InvertedIndex& index, const QueryNode& query,
                           const CorpusStats* corpus) const override {
    // Window (#odN/#uwN) nodes: precompute match frequencies once.
    WindowCache window_cache;
    SDMS_RETURN_IF_ERROR(CollectWindows(index, query, window_cache));

    // Candidate generation: every document providing evidence for some
    // evidence node — containing a plain query term, or matching a
    // window expression. Other documents keep the all-default belief,
    // which is constant across documents and rank-irrelevant. The walk
    // is doc-at-a-time over one cursor per distinct evidence term (a
    // repeated term shares its cursor, so every block of every list is
    // decoded exactly once) merged with the window matches.
    TermCursors terms;
    CollectTerms(index, query, terms);
    // The longest evidence list is a lower bound on the candidates.
    size_t min_candidates = 0;
    for (const PostingsCursor& c : terms.cursors) {
      min_candidates = std::max(min_candidates, c.size());
    }
    using WindowIt = std::map<DocId, uint32_t>::const_iterator;
    std::vector<std::pair<WindowIt, WindowIt>> windows;
    windows.reserve(window_cache.size());
    for (const auto& [node, matches] : window_cache) {
      windows.emplace_back(matches.begin(), matches.end());
      min_candidates = std::max(min_candidates, matches.size());
    }

    ScoreMap out;
    out.reserve(min_candidates);
    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    const double avgdl = std::max(corpus != nullptr ? corpus->avg_doc_length()
                                                    : index.avg_doc_length(),
                                  1e-9);
    size_t steps = 0;
    while (true) {
      // Next candidate: the smallest doc any cursor or window sits on.
      bool have = false;
      DocId d = 0;
      for (PostingsCursor& c : terms.cursors) {
        if (c.AtEnd()) continue;
        DocId cd = c.doc();
        if (c.AtEnd()) return c.status();  // decode failure latched
        if (!have || cd < d) {
          d = cd;
          have = true;
        }
      }
      for (const auto& [it, end] : windows) {
        if (it != end && (!have || it->first < d)) {
          d = it->first;
          have = true;
        }
      }
      if (!have) break;
      // The per-candidate belief walk is the scoring hot loop; stop
      // promptly once the query's deadline/cancellation fires.
      if (++steps % 256 == 0 && QueryShouldStop()) {
        return CurrentQueryStatus();
      }
      // Read each term's tf at `d` and step the cursors sitting on it.
      for (size_t i = 0; i < terms.cursors.size(); ++i) {
        PostingsCursor& c = terms.cursors[i];
        terms.tf[i] = 0;
        if (c.AtEnd() || c.doc() != d) continue;
        terms.tf[i] = c.tf();
        c.Next();
      }
      for (auto& [it, end] : windows) {
        if (it != end && it->first == d) ++it;
      }
      if (!index.IsAlive(d)) continue;  // tombstoned, awaiting compaction
      auto info = index.GetDoc(d);
      double dl = info.ok() ? static_cast<double>((*info)->length) : avgdl;
      out[d] = Belief(index, query, d, dl, n, avgdl, terms, window_cache,
                      corpus);
    }
    return out;
  }

 private:
  using WindowCache = std::map<const QueryNode*, std::map<DocId, uint32_t>>;

  /// The evidence terms of one Score() walk: a cursor per distinct
  /// term with its tf at the current candidate (0 when absent there),
  /// and the cursor slot of every term node.
  struct TermCursors {
    std::vector<PostingsCursor> cursors;
    std::vector<uint32_t> tf;
    std::unordered_map<std::string, size_t> by_term;
    std::unordered_map<const QueryNode*, size_t> slot;
  };

  static void CollectTerms(const InvertedIndex& index, const QueryNode& node,
                           TermCursors& terms) {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      return;  // Terms in a window contribute via matches.
    }
    if (node.op == QueryOp::kTerm) {
      auto [it, inserted] =
          terms.by_term.emplace(node.term, terms.cursors.size());
      if (inserted) {
        terms.cursors.push_back(index.OpenCursor(node.term));
        terms.tf.push_back(0);
      }
      terms.slot[&node] = it->second;
      return;
    }
    for (const auto& c : node.children) CollectTerms(index, *c, terms);
  }

  static Status CollectWindows(const InvertedIndex& index,
                               const QueryNode& node, WindowCache& cache) {
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      std::vector<std::string> terms;
      node.CollectTerms(terms);
      SDMS_ASSIGN_OR_RETURN(
          cache[&node],
          WindowMatchFrequencies(index, terms, node.op == QueryOp::kOdn,
                                 node.window));
      return Status::OK();
    }
    for (const auto& c : node.children) {
      SDMS_RETURN_IF_ERROR(CollectWindows(index, *c, cache));
    }
    return Status::OK();
  }

  /// The INQUERY belief of `tf` occurrences in a document of length
  /// `dl`, for evidence that `df` of the `n` documents hold.
  double EvidenceBelief(double tf, double df, double dl, double n,
                        double avgdl) const {
    double ntf = tf / (tf + 0.5 + 1.5 * dl / avgdl);
    double nidf =
        std::log((n + 0.5) / std::max(df, 1.0)) / std::log(n + 1.0);
    nidf = std::max(0.0, std::min(1.0, nidf));
    return default_belief_ + (1.0 - default_belief_) * ntf * nidf;
  }

  double Belief(const InvertedIndex& index, const QueryNode& node, DocId doc,
                double dl, double n, double avgdl, const TermCursors& terms,
                const WindowCache& window_cache,
                const CorpusStats* corpus) const {
    if (node.op == QueryOp::kTerm) {
      auto it = terms.slot.find(&node);
      uint32_t tf = it != terms.slot.end() ? terms.tf[it->second] : 0;
      if (tf == 0) return default_belief_;
      uint64_t df = corpus != nullptr ? corpus->Df(node.term)
                                      : index.DocFreq(node.term);
      return EvidenceBelief(tf, static_cast<double>(df), dl, n, avgdl);
    }
    if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
      // Window belief: the matches behave like occurrences of a pseudo
      // term whose df is the number of matching documents — summed
      // over every shard when corpus statistics are injected (the
      // local cache only sees this shard's matches).
      auto it = window_cache.find(&node);
      if (it == window_cache.end()) return default_belief_;
      auto dit = it->second.find(doc);
      if (dit == it->second.end()) return default_belief_;
      double df = corpus != nullptr
                      ? static_cast<double>(corpus->WindowDf(&node))
                      : static_cast<double>(it->second.size());
      return EvidenceBelief(dit->second, df, dl, n, avgdl);
    }
    return CombineBeliefs(node, default_belief_, [&](size_t i) {
      return Belief(index, *node.children[i], doc, dl, n, avgdl, terms,
                    window_cache, corpus);
    });
  }

  double default_belief_;
};

}  // namespace

std::unique_ptr<RetrievalModel> MakeInferenceNetModel(double default_belief) {
  return std::make_unique<InferenceNetModel>(default_belief);
}

StatusOr<std::unique_ptr<RetrievalModel>> MakeModel(const std::string& name) {
  if (name == "boolean") return MakeBooleanModel();
  if (name == "vsm") return MakeVectorSpaceModel();
  if (name == "bm25") return MakeBm25Model();
  if (name == "inquery") return MakeInferenceNetModel();
  return Status::InvalidArgument("unknown retrieval model: " + name);
}

}  // namespace sdms::irs

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
    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    const double avgdl = std::max(corpus != nullptr ? corpus->avg_doc_length()
                                                    : index.avg_doc_length(),
                                  1e-9);
    Compiled plan;
    SDMS_RETURN_IF_ERROR(Compile(index, query, corpus, n, plan));

    // Candidate generation: every document providing evidence for some
    // evidence node — containing a plain query term, or matching a
    // window expression. Other documents keep the all-default belief,
    // which is constant across documents and rank-irrelevant. The walk
    // is doc-at-a-time over one cursor per distinct evidence term (a
    // repeated term shares its cursor, so every block of every list is
    // decoded exactly once) merged with the window matches, so the
    // scores come out in ascending doc id order.
    // The longest evidence list is a lower bound on the candidates.
    size_t min_candidates = 0;
    for (const PostingsCursor& c : plan.cursors) {
      min_candidates = std::max(min_candidates, c.size());
    }
    using WindowIt = std::map<DocId, uint32_t>::const_iterator;
    std::vector<std::pair<WindowIt, WindowIt>> windows;
    windows.reserve(plan.windows.size());
    for (const auto& matches : plan.windows) {
      windows.emplace_back(matches.begin(), matches.end());
      min_candidates = std::max(min_candidates, matches.size());
    }

    ScoreMap out;
    out.reserve(min_candidates);
    size_t steps = 0;
    while (true) {
      // Next candidate: the smallest doc any cursor or window sits on.
      bool have = false;
      DocId d = 0;
      for (PostingsCursor& c : plan.cursors) {
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
      // Read each input's tf at `d` and step the inputs sitting on it.
      for (size_t i = 0; i < plan.cursors.size(); ++i) {
        PostingsCursor& c = plan.cursors[i];
        plan.term_tf[i] = 0;
        if (c.AtEnd() || c.doc() != d) continue;
        plan.term_tf[i] = c.tf();
        c.Next();
      }
      for (size_t w = 0; w < windows.size(); ++w) {
        auto& [it, end] = windows[w];
        plan.window_tf[w] = 0;
        if (it == end || it->first != d) continue;
        plan.window_tf[w] = it->second;
        ++it;
      }
      if (!index.IsAlive(d)) continue;  // tombstoned, awaiting compaction
      auto info = index.GetDoc(d);
      double dl = info.ok() ? static_cast<double>((*info)->length) : avgdl;
      out.emplace_back(d, Belief(plan, 0, dl, avgdl));
    }
    return out;
  }

 private:
  /// One node of the compiled query. Steps are laid out breadth-first,
  /// so an operator's children are the contiguous steps from `first`.
  struct Step {
    const QueryNode* node = nullptr;
    /// Operator: its first child step. Term leaf: its cursor. Window
    /// leaf: its match list.
    size_t first = 0;
    /// Leaves: the evidence's normalized idf, from the injected
    /// corpus statistics when there are any.
    double nidf = 0.0;
  };

  /// A query resolved for one Score() call: every leaf's input and
  /// nidf looked up once, plus each input's tf at the current
  /// candidate (0 when absent there).
  struct Compiled {
    std::vector<Step> steps;
    std::vector<PostingsCursor> cursors;  // One per distinct term.
    std::vector<uint32_t> term_tf;
    std::vector<std::map<DocId, uint32_t>> windows;  // One per window.
    std::vector<uint32_t> window_tf;
  };

  static Status Compile(const InvertedIndex& index, const QueryNode& query,
                        const CorpusStats* corpus, double n, Compiled& plan) {
    std::unordered_map<std::string, size_t> by_term;
    plan.steps.push_back(Step{&query});
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const QueryNode& node = *plan.steps[i].node;
      if (node.op == QueryOp::kTerm) {
        auto [it, inserted] = by_term.emplace(node.term, plan.cursors.size());
        if (inserted) {
          plan.cursors.push_back(index.OpenCursor(node.term));
          plan.term_tf.push_back(0);
        }
        uint64_t df = corpus != nullptr ? corpus->Df(node.term)
                                        : index.DocFreq(node.term);
        plan.steps[i].first = it->second;
        plan.steps[i].nidf = Nidf(static_cast<double>(df), n);
        continue;
      }
      if (node.op == QueryOp::kOdn || node.op == QueryOp::kUwn) {
        // Window belief: the matches behave like occurrences of a
        // pseudo term whose df is the number of matching documents —
        // summed over every shard when corpus statistics are injected
        // (the local matches only see this shard).
        std::vector<std::string> terms;
        node.CollectTerms(terms);
        using Matches = std::map<DocId, uint32_t>;
        SDMS_ASSIGN_OR_RETURN(
            Matches matches,
            WindowMatchFrequencies(index, terms, node.op == QueryOp::kOdn,
                                   node.window));
        double df = corpus != nullptr
                        ? static_cast<double>(corpus->WindowDf(&node))
                        : static_cast<double>(matches.size());
        plan.steps[i].first = plan.windows.size();
        plan.steps[i].nidf = Nidf(df, n);
        plan.windows.push_back(std::move(matches));
        plan.window_tf.push_back(0);
        continue;
      }
      plan.steps[i].first = plan.steps.size();
      for (const auto& c : node.children) plan.steps.push_back(Step{c.get()});
    }
    return Status::OK();
  }

  /// nidf = log((N + 0.5) / df) / log(N + 1), clamped to [0, 1].
  static double Nidf(double df, double n) {
    double nidf =
        std::log((n + 0.5) / std::max(df, 1.0)) / std::log(n + 1.0);
    return std::max(0.0, std::min(1.0, nidf));
  }

  /// The INQUERY belief of `tf` occurrences in a document of length
  /// `dl`, for evidence of normalized idf `nidf`.
  double EvidenceBelief(double tf, double nidf, double dl,
                        double avgdl) const {
    double ntf = tf / (tf + 0.5 + 1.5 * dl / avgdl);
    return default_belief_ + (1.0 - default_belief_) * ntf * nidf;
  }

  double Belief(const Compiled& plan, size_t i, double dl,
                double avgdl) const {
    const Step& step = plan.steps[i];
    const QueryNode& node = *step.node;
    if (node.op == QueryOp::kTerm || node.op == QueryOp::kOdn ||
        node.op == QueryOp::kUwn) {
      uint32_t tf = node.op == QueryOp::kTerm ? plan.term_tf[step.first]
                                              : plan.window_tf[step.first];
      if (tf == 0) return default_belief_;
      return EvidenceBelief(tf, step.nidf, dl, avgdl);
    }
    return CombineBeliefs(node, default_belief_, [&](size_t c) {
      return Belief(plan, step.first + c, dl, avgdl);
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

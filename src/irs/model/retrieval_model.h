#ifndef SDMS_IRS_MODEL_RETRIEVAL_MODEL_H_
#define SDMS_IRS_MODEL_RETRIEVAL_MODEL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "irs/index/inverted_index.h"
#include "irs/query/query_node.h"

namespace sdms::irs {

/// Scores of matching documents: (internal doc id, IRS value) pairs in
/// strictly ascending doc id order, the order a doc-at-a-time walk
/// produces. Held flat, so a shard's hits are built in one pass with no
/// re-keying or sort.
using ScoreMap = std::vector<std::pair<DocId, double>>;

/// The ScoreMap of a term-at-a-time accumulator (BM25 and the vector
/// space model sum into one, then emit it once).
inline ScoreMap SortedByDoc(const std::unordered_map<DocId, double>& acc) {
  ScoreMap out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end());  // Doc ids are unique.
  return out;
}

/// Corpus-wide statistics injected into a model when it scores one
/// shard of a sharded collection. Scores are otherwise a function of
/// doc-local evidence plus collection statistics (document count,
/// average document length, per-term document frequency); evaluating
/// them against the *global* statistics makes per-shard scoring
/// bit-identical to scoring the same document in one unsharded index —
/// which is what lets fan-out/merge return the exact single-shard
/// ranking. All fields are integer sums over shards, so there is no
/// floating-point accumulation-order hazard.
struct CorpusStats {
  /// Live documents across all shards.
  uint64_t doc_count = 0;
  /// Token occurrences in live documents across all shards.
  uint64_t total_tokens = 0;
  /// Per query term: document frequency summed over shards (including
  /// tombstones, matching InvertedIndex::DocFreq semantics).
  std::unordered_map<std::string, uint64_t> term_df;
  /// Per window (#odN/#uwN) node of the parsed query: matching
  /// documents summed over shards. Keyed by node pointer, so every
  /// shard must be scored against the same parsed tree.
  std::map<const QueryNode*, uint64_t> window_df;

  /// Same expression as InvertedIndex::avg_doc_length() so the value
  /// is bit-identical to the unsharded one.
  double avg_doc_length() const {
    if (doc_count == 0) return 0.0;
    return static_cast<double>(total_tokens) /
           static_cast<double>(doc_count);
  }

  uint64_t Df(const std::string& term) const {
    auto it = term_df.find(term);
    return it == term_df.end() ? 0 : it->second;
  }

  uint64_t WindowDf(const QueryNode* node) const {
    auto it = window_df.find(node);
    return it == window_df.end() ? 0 : it->second;
  }
};

/// A retrieval paradigm. The paper's loose coupling explicitly allows
/// exchanging the retrieval machine ("boolean retrieval systems, vector
/// retrieval systems, and systems based on probability"); this
/// interface is that exchange point.
class RetrievalModel {
 public:
  virtual ~RetrievalModel() = default;

  /// Model name for diagnostics ("inquery", "bm25", ...).
  virtual std::string name() const = 0;

  /// Evaluates `query` over `index`, returning scores for matching
  /// documents. Scores are normalized to [0, 1] where the model
  /// supports it (boolean and inference-network models do; tf-idf and
  /// BM25 scores are positive but unbounded). When `corpus` is
  /// non-null the model takes collection statistics from it instead of
  /// from `index` (sharded scoring, see CorpusStats); null preserves
  /// the single-index behavior exactly.
  virtual StatusOr<ScoreMap> Score(
      const InvertedIndex& index, const QueryNode& query,
      const CorpusStats* corpus = nullptr) const = 0;

  /// Top-k-aware scoring: returns a *pruned* score map guaranteed to
  /// contain every live document that can appear in the final top `k`
  /// (ties included), each with exactly the score Score() would have
  /// produced — so the caller's (score desc, key asc) selection over
  /// the map yields rankings bit-identical to the exhaustive path.
  /// Models that can exploit block metadata (Block-Max-WAND-style
  /// skipping) override this; the default simply scores everything.
  /// `k` == 0 means unbounded (identical to Score()).
  virtual StatusOr<ScoreMap> ScoreTopK(
      const InvertedIndex& index, const QueryNode& query, size_t k,
      const CorpusStats* corpus = nullptr) const {
    (void)k;
    return Score(index, query, corpus);
  }
};

/// Factories for the built-in models.
std::unique_ptr<RetrievalModel> MakeBooleanModel();
std::unique_ptr<RetrievalModel> MakeVectorSpaceModel();
std::unique_ptr<RetrievalModel> MakeBm25Model(double k1 = 1.2,
                                              double b = 0.75);
std::unique_ptr<RetrievalModel> MakeInferenceNetModel(
    double default_belief = 0.4);

/// Creates a model by name: "boolean", "vsm", "bm25", "inquery".
StatusOr<std::unique_ptr<RetrievalModel>> MakeModel(const std::string& name);

}  // namespace sdms::irs

#endif  // SDMS_IRS_MODEL_RETRIEVAL_MODEL_H_

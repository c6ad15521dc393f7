#include <algorithm>
#include <cmath>
#include <map>

#include "common/query_context.h"
#include "irs/model/retrieval_model.h"

namespace sdms::irs {

namespace {

/// Safety margin on score upper bounds: block metadata bounds are
/// mathematically sound, but the exact per-doc sum and the bound are
/// computed through different floating-point expressions. Inflating
/// every bound by 1e-10 relative dwarfs any ulp-level divergence, so a
/// document is only pruned when it *provably* cannot enter the top k —
/// the block path stays bit-identical to exhaustive scoring.
constexpr double kBoundSlack = 1.0 + 1e-10;

/// Okapi BM25 (probabilistic model). Like the vector-space model it
/// flattens structured queries to a term bag; it stands in for the
/// "systems based on probability" family the paper names.
class Bm25Model : public RetrievalModel {
 public:
  Bm25Model(double k1, double b) : k1_(k1), b_(b) {}

  std::string name() const override { return "bm25"; }

  StatusOr<ScoreMap> Score(const InvertedIndex& index, const QueryNode& query,
                           const CorpusStats* corpus) const override {
    std::map<std::string, uint32_t> qtf = QueryTermFreqs(query);
    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    const double avgdl = std::max(corpus != nullptr ? corpus->avg_doc_length()
                                                    : index.avg_doc_length(),
                                  1e-9);
    ScoreMap scores;
    for (const auto& [term, tf_q] : qtf) {
      uint64_t df =
          corpus != nullptr ? corpus->Df(term) : index.DocFreq(term);
      if (df == 0) continue;
      double idf = Idf(n, static_cast<double>(df));
      SDMS_RETURN_IF_ERROR(WalkPostings(
          index.OpenCursor(term), [&](DocId doc, uint32_t tf) {
            auto info = index.GetDoc(doc);
            double dl =
                info.ok() ? static_cast<double>((*info)->length) : avgdl;
            scores[doc] += Contribution(tf_q, idf, tf, dl, avgdl);
          }));
    }
    return scores;
  }

  /// Document-at-a-time MaxScore over the block cursors, tightened by
  /// per-block metadata (Block-Max-WAND-style): terms whose summed
  /// upper bounds cannot reach the current k-th score are never
  /// iterated, candidates are vetoed by block-level bounds before any
  /// block is decoded, and exact scoring abandons a document as soon
  /// as its remaining bound drops below the threshold. Every fully
  /// scored document lands in the returned map with a score produced
  /// by the same lexicographic-term-order summation as Score(), so
  /// surviving documents carry bit-identical values.
  StatusOr<ScoreMap> ScoreTopK(const InvertedIndex& index,
                               const QueryNode& query, size_t k,
                               const CorpusStats* corpus) const override {
    if (k == 0) return Score(index, query, corpus);
    std::map<std::string, uint32_t> qtf = QueryTermFreqs(query);
    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    const double avgdl = std::max(corpus != nullptr ? corpus->avg_doc_length()
                                                    : index.avg_doc_length(),
                                  1e-9);

    // Term state in lexicographic order — the exact-scoring loop must
    // add contributions in the same order Score() does (std::map).
    struct TermState {
      uint32_t tf_q = 0;
      double idf = 0.0;
      double list_bound = 0.0;  // ub of any single contribution
      PostingsCursor cursor;
    };
    std::vector<TermState> terms;
    terms.reserve(qtf.size());
    for (const auto& [term, tf_q] : qtf) {
      const BlockPostingsList* list = index.GetPostingsList(term);
      if (list == nullptr || list->empty()) continue;
      TermState ts;
      ts.tf_q = tf_q;
      // The idf must match Score()'s: global df under sharded scoring,
      // this list's df (== DocFreq) otherwise. The block bounds below
      // stay local — they bound this shard's postings, which is all
      // this call iterates.
      ts.idf = Idf(n, corpus != nullptr
                          ? static_cast<double>(corpus->Df(term))
                          : static_cast<double>(list->size()));
      ts.list_bound = Bound(ts.tf_q, ts.idf, list->max_tf(),
                            list->min_doc_len(), avgdl);
      ts.cursor = PostingsCursor(list);
      terms.push_back(std::move(ts));
    }
    ScoreMap scores;
    if (terms.empty()) return scores;

    // MaxScore split: term indices ordered by ascending bound. The
    // prefix whose cumulative bound stays below the threshold is
    // "non-essential" — those lists are only probed via SkipTo, never
    // iterated, which is where whole blocks get skipped undecoded.
    std::vector<size_t> by_bound(terms.size());
    for (size_t i = 0; i < by_bound.size(); ++i) by_bound[i] = i;
    std::sort(by_bound.begin(), by_bound.end(), [&](size_t a, size_t b) {
      return terms[a].list_bound < terms[b].list_bound;
    });
    std::vector<double> bound_prefix(terms.size() + 1, 0.0);
    for (size_t i = 0; i < by_bound.size(); ++i) {
      bound_prefix[i + 1] =
          bound_prefix[i] + terms[by_bound[i]].list_bound;
    }
    // Suffix bounds in lex order for early abandoning during scoring.
    std::vector<double> lex_suffix(terms.size() + 1, 0.0);
    for (size_t i = terms.size(); i-- > 0;) {
      lex_suffix[i] = lex_suffix[i + 1] + terms[i].list_bound;
    }

    // Threshold: k-th best score among live docs so far (min-heap).
    std::vector<double> heap;  // min-heap of retained live scores
    double theta = -1.0;       // no pruning until k live docs scored
    auto offer = [&](double score) {
      if (heap.size() < k) {
        heap.push_back(score);
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        if (heap.size() == k) theta = heap.front();
      } else if (score > heap.front()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        heap.back() = score;
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
        theta = heap.front();
      }
    };
    // First essential term (in by_bound order): lowest index e with
    // bound_prefix[e] * slack >= theta fails — i.e. the non-essential
    // prefix alone cannot reach theta.
    auto first_essential = [&]() {
      size_t e = 0;
      while (e < by_bound.size() &&
             theta >= 0.0 && bound_prefix[e + 1] * kBoundSlack < theta) {
        ++e;
      }
      return e;
    };

    // `floor` is the smallest doc id still eligible: processed
    // candidates never recur, even when a cursor probed only at block
    // granularity later rejoins the essential set behind the frontier.
    DocId floor = 0;
    size_t steps = 0;
    while (true) {
      if (++steps % 256 == 0 && QueryShouldStop()) {
        return CurrentQueryStatus();
      }
      size_t ess = first_essential();
      if (ess >= by_bound.size()) break;  // nothing can reach theta
      // Next candidate: minimum doc >= floor over essential cursors.
      DocId cand = 0;
      bool have = false;
      for (size_t i = ess; i < by_bound.size(); ++i) {
        PostingsCursor& c = terms[by_bound[i]].cursor;
        if (c.AtEnd() || !c.SkipTo(floor)) {
          SDMS_RETURN_IF_ERROR(c.status());
          continue;
        }
        DocId d = c.doc();
        if (c.AtEnd()) return c.status();  // decode failure latched
        if (!have || d < cand) {
          cand = d;
          have = true;
        }
      }
      if (!have) break;

      // Block-level veto (the Block-Max part): bound the candidate by
      // the metadata of the blocks that would contain it — no decode.
      double block_bound = 0.0;
      bool have_theta = theta >= 0.0;
      if (have_theta) {
        for (TermState& t : terms) {
          if (t.cursor.AtEnd()) continue;
          if (!t.cursor.AdvanceBlocksTo(cand)) {
            SDMS_RETURN_IF_ERROR(t.cursor.status());
            continue;
          }
          if (t.cursor.block_first_doc() > cand) continue;  // absent
          block_bound += Bound(t.tf_q, t.idf, t.cursor.block_max_tf(),
                               t.cursor.block_min_doc_len(), avgdl);
        }
      }
      bool prune = have_theta && block_bound * kBoundSlack < theta;
      if (!prune) {
        // Exact scoring in lex term order (bit-identical summation),
        // abandoning once even the remaining lex-suffix bound cannot
        // lift the document to theta.
        double score = 0.0;
        bool complete = true;
        auto info = index.GetDoc(cand);
        double dl = info.ok() ? static_cast<double>((*info)->length) : avgdl;
        for (size_t t = 0; t < terms.size(); ++t) {
          if (theta >= 0.0 &&
              (score + lex_suffix[t]) * kBoundSlack < theta) {
            complete = false;  // provably below the threshold
            break;
          }
          PostingsCursor& c = terms[t].cursor;
          if (c.AtEnd() || !c.SkipTo(cand)) {
            SDMS_RETURN_IF_ERROR(c.status());
            continue;
          }
          if (c.doc() != cand) continue;
          score += Contribution(terms[t].tf_q, terms[t].idf, c.tf(), dl,
                                avgdl);
        }
        if (complete) {
          scores[cand] = score;
          if (index.IsAlive(cand)) offer(score);
        }
      }
      if (cand == std::numeric_limits<DocId>::max()) break;
      floor = cand + 1;
    }
    return scores;
  }

 private:
  static std::map<std::string, uint32_t> QueryTermFreqs(
      const QueryNode& query) {
    std::vector<std::string> terms;
    query.CollectTerms(terms);
    std::map<std::string, uint32_t> qtf;
    for (const std::string& t : terms) ++qtf[t];
    return qtf;
  }

  static double Idf(double n, double df) {
    // BM25+-style floor keeps idf positive for very common terms.
    return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
  }

  double Contribution(uint32_t tf_q, double idf, uint32_t tf, double dl,
                      double avgdl) const {
    double tfd = static_cast<double>(tf);
    double denom = tfd + k1_ * (1.0 - b_ + b_ * dl / avgdl);
    return static_cast<double>(tf_q) * idf * (tfd * (k1_ + 1.0)) / denom;
  }

  /// Upper bound of Contribution over any posting with tf <= max_tf
  /// and dl >= min_dl: the term score is increasing in tf and
  /// decreasing in dl.
  double Bound(uint32_t tf_q, double idf, uint32_t max_tf, uint32_t min_dl,
               double avgdl) const {
    double dl = min_dl == 0xffffffffu ? 0.0 : static_cast<double>(min_dl);
    return Contribution(tf_q, idf, max_tf, dl, avgdl);
  }

  double k1_;
  double b_;
};

}  // namespace

std::unique_ptr<RetrievalModel> MakeBm25Model(double k1, double b) {
  return std::make_unique<Bm25Model>(k1, b);
}

}  // namespace sdms::irs

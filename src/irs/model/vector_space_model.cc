#include <cmath>
#include <map>

#include "irs/model/retrieval_model.h"

namespace sdms::irs {

namespace {

/// Classic tf·idf vector-space model with cosine normalization. The
/// structured operators are flattened to a bag of terms (vector models
/// have no operator semantics), which is exactly the degradation the
/// paper accepts when the retrieval machine is exchanged.
class VectorSpaceModel : public RetrievalModel {
 public:
  std::string name() const override { return "vsm"; }

  StatusOr<ScoreMap> Score(const InvertedIndex& index, const QueryNode& query,
                           const CorpusStats* corpus) const override {
    std::vector<std::string> terms;
    query.CollectTerms(terms);
    // Query term frequencies.
    std::map<std::string, uint32_t> qtf;
    for (const std::string& t : terms) ++qtf[t];

    const double n = std::max<double>(
        corpus != nullptr ? corpus->doc_count : index.doc_count(), 1.0);
    ScoreMap scores;
    double query_norm_sq = 0.0;
    for (const auto& [term, tf_q] : qtf) {
      // Under sharded scoring the query norm must accumulate over every
      // term with corpus-wide evidence — even one absent from this
      // shard — or shards would normalize by different query vectors.
      uint64_t df =
          corpus != nullptr ? corpus->Df(term) : index.DocFreq(term);
      if (df == 0) continue;
      double idf = std::log(n / static_cast<double>(df)) + 1.0;
      double wq = static_cast<double>(tf_q) * idf;
      query_norm_sq += wq * wq;
      SDMS_RETURN_IF_ERROR(WalkPostings(
          index.OpenCursor(term), [&](DocId doc, uint32_t tf) {
            double wd = (1.0 + std::log(static_cast<double>(tf))) * idf;
            scores[doc] += wq * wd;
          }));
    }
    if (scores.empty()) return scores;
    // Cosine: normalize by query norm and document length proxy.
    double qn = std::sqrt(std::max(query_norm_sq, 1e-12));
    for (auto& [doc, score] : scores) {
      auto info = index.GetDoc(doc);
      double dl = info.ok() ? std::max<double>((*info)->length, 1.0) : 1.0;
      score /= qn * std::sqrt(dl);
    }
    return scores;
  }
};

}  // namespace

std::unique_ptr<RetrievalModel> MakeVectorSpaceModel() {
  return std::make_unique<VectorSpaceModel>();
}

}  // namespace sdms::irs

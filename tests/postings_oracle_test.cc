// Oracle tests for the block-compressed postings path: the pruned
// top-k scorer, the cursor kernels, every model's exhaustive scorer and
// a checkpoint round trip must all be bit-identical to the exhaustive /
// decoded reference paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "irs/collection.h"
#include "irs/index/postings_kernels.h"
#include "irs/index/proximity.h"

namespace sdms::irs {
namespace {

std::vector<BatchDocument> MakeCorpus(size_t num_docs, size_t words_per_doc,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<BatchDocument> docs;
  docs.reserve(num_docs);
  for (size_t i = 0; i < num_docs; ++i) {
    std::string text;
    for (size_t w = 0; w < words_per_doc; ++w) {
      if (!text.empty()) text += ' ';
      // Nested Uniform skews the vocabulary towards low term ids.
      text += "t" + std::to_string(rng.Uniform(rng.Uniform(200) + 1));
      if (w % 7 == 0 && i % 2 == 0) text += " shared";
      if (w % 11 == 0 && i % 3 == 0) text += " topic";
      if (w % 13 == 0 && i % 5 == 0) text += " rare";
    }
    docs.push_back({"oid:" + std::to_string(i), std::move(text)});
  }
  return docs;
}

std::unique_ptr<IrsCollection> BuildCollection(const std::string& model_name,
                                               uint64_t seed = 7) {
  auto model = MakeModel(model_name);
  EXPECT_TRUE(model.ok());
  auto coll = std::make_unique<IrsCollection>("oracle", AnalyzerOptions{},
                                              std::move(*model));
  EXPECT_TRUE(coll->AddDocumentsBatch(MakeCorpus(400, 40, seed)).ok());
  return coll;
}

/// Asserts Search(q, k) equals the first k hits of Search(q), with
/// bit-identical scores. This is the pruned Block-Max path against the
/// exhaustive score-everything path.
void ExpectTopKMatchesPrefix(IrsCollection& coll, const std::string& query) {
  auto full = coll.Search(query);
  ASSERT_TRUE(full.ok()) << query << ": " << full.status().ToString();
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{50},
                   full->size() + 5}) {
    auto topk = coll.Search(query, k);
    ASSERT_TRUE(topk.ok()) << query << ": " << topk.status().ToString();
    size_t expect = std::min(k, full->size());
    ASSERT_EQ(topk->size(), expect) << query << " k=" << k;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ((*topk)[i].key, (*full)[i].key) << query << " k=" << k;
      // Exact double equality on purpose: the pruned path must compute
      // the surviving scores the same way as the exhaustive path.
      EXPECT_EQ((*topk)[i].score, (*full)[i].score) << query << " k=" << k;
    }
  }
}

const char* kRankedQueries[] = {
    "shared topic",
    "rare",
    "shared topic rare t0 t1",
    "t3",
    "nosuchterm",
    "nosuchterm shared",
};

TEST(PostingsOracleTest, Bm25TopKMatchesFullSearch) {
  auto coll = BuildCollection("bm25");
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

TEST(PostingsOracleTest, VsmTopKMatchesFullSearch) {
  auto coll = BuildCollection("vsm");
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

TEST(PostingsOracleTest, InqueryStructuredTopKMatchesFullSearch) {
  auto coll = BuildCollection("inquery");
  for (const char* q :
       {"shared topic", "#and(shared topic)", "#or(topic rare)",
        "#od3(shared topic)", "#uw8(shared rare)",
        "#wsum(2 shared 1 #and(topic rare))"}) {
    ExpectTopKMatchesPrefix(*coll, q);
  }
}

TEST(PostingsOracleTest, TopKOracleSurvivesTombstones) {
  auto coll = BuildCollection("bm25");
  // Tombstone a third of the corpus without forcing compaction, so the
  // pruned path must filter dead docs exactly like the full path.
  for (int i = 0; i < 400; i += 3) {
    ASSERT_TRUE(coll->RemoveDocument("oid:" + std::to_string(i)).ok());
  }
  ASSERT_GT(coll->index().tombstone_count(), 0u);
  for (const char* q : kRankedQueries) ExpectTopKMatchesPrefix(*coll, q);
}

/// `term`'s postings decoded whole (DecodeAll, not a cursor): doc ->
/// tf. Empty when the term is unknown.
std::map<DocId, uint32_t> DecodedTf(const InvertedIndex& index,
                                    const std::string& term) {
  std::map<DocId, uint32_t> out;
  const BlockPostingsList* list = index.GetPostingsList(term);
  if (list == nullptr) return out;
  auto postings = list->DecodeAll();
  EXPECT_TRUE(postings.ok()) << term;
  if (!postings.ok()) return out;
  for (const Posting& p : *postings) out[p.doc] = p.tf;
  return out;
}

TEST(PostingsOracleTest, CursorKernelsMatchFlatKernels) {
  auto coll = BuildCollection("inquery");
  const InvertedIndex& index = coll->index();
  const std::vector<std::vector<std::string>> word_sets = {
      {"shared", "topic"},
      {"shared", "topic", "rare"},
      {"t0", "t1", "t2", "shared"},
      {"rare", "nosuchterm"},
  };
  for (const auto& words : word_sets) {
    // Dictionary terms are post-analysis (stemmed).
    std::vector<std::string> terms;
    for (const auto& w : words) {
      std::vector<std::string> analyzed = coll->analyzer().Analyze(w);
      ASSERT_EQ(analyzed.size(), 1u) << w;
      terms.push_back(analyzed[0]);
    }
    std::vector<DocId> expected;
    for (size_t i = 0; i < terms.size(); ++i) {
      std::vector<DocId> docs;
      for (const auto& [doc, tf] : DecodedTf(index, terms[i])) {
        docs.push_back(doc);
      }
      if (i == 0) {
        expected = std::move(docs);
        continue;
      }
      std::vector<DocId> both;
      std::set_intersection(expected.begin(), expected.end(), docs.begin(),
                            docs.end(), std::back_inserter(both));
      expected = std::move(both);
    }

    std::vector<PostingsCursor> cursors;
    for (const auto& t : terms) cursors.push_back(index.OpenCursor(t));
    auto inter = IntersectCursors(std::move(cursors));
    ASSERT_TRUE(inter.ok());
    EXPECT_EQ(*inter, expected);
  }
}

// ---------------------------------------------------------------------------
// Reference scorers: each model's formula evaluated over lists decoded
// whole, with the same summation order as the model, so the cursor
// walks inside the models must reproduce these scores bit for bit.
// Window matches come from WindowMatchFrequencies — the proximity
// matcher is shared, the term evidence and candidate merge are not.
// ---------------------------------------------------------------------------

std::map<std::string, uint32_t> QueryTermFreqs(const QueryNode& query) {
  std::vector<std::string> terms;
  query.CollectTerms(terms);
  std::map<std::string, uint32_t> qtf;
  for (const std::string& t : terms) ++qtf[t];
  return qtf;
}

double DocLength(const InvertedIndex& index, DocId doc) {
  auto info = index.GetDoc(doc);
  EXPECT_TRUE(info.ok()) << doc;
  return info.ok() ? static_cast<double>((*info)->length) : 0.0;
}

ScoreMap ReferenceBm25(const InvertedIndex& index, const QueryNode& query) {
  const double k1 = 1.2;
  const double b = 0.75;
  const double n = std::max<double>(index.doc_count(), 1.0);
  const double avgdl = std::max(index.avg_doc_length(), 1e-9);
  ScoreMap scores;
  for (const auto& [term, tf_q] : QueryTermFreqs(query)) {
    double df = static_cast<double>(index.DocFreq(term));
    if (df == 0) continue;
    double idf = std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    for (const auto& [doc, tf] : DecodedTf(index, term)) {
      double tfd = static_cast<double>(tf);
      double denom = tfd + k1 * (1.0 - b + b * DocLength(index, doc) / avgdl);
      scores[doc] += static_cast<double>(tf_q) * idf * (tfd * (k1 + 1.0)) /
                     denom;
    }
  }
  return scores;
}

ScoreMap ReferenceVsm(const InvertedIndex& index, const QueryNode& query) {
  const double n = std::max<double>(index.doc_count(), 1.0);
  ScoreMap scores;
  double query_norm_sq = 0.0;
  for (const auto& [term, tf_q] : QueryTermFreqs(query)) {
    uint64_t df = index.DocFreq(term);
    if (df == 0) continue;
    double idf = std::log(n / static_cast<double>(df)) + 1.0;
    double wq = static_cast<double>(tf_q) * idf;
    query_norm_sq += wq * wq;
    for (const auto& [doc, tf] : DecodedTf(index, term)) {
      scores[doc] += wq * ((1.0 + std::log(static_cast<double>(tf))) * idf);
    }
  }
  double qn = std::sqrt(std::max(query_norm_sq, 1e-12));
  for (auto& [doc, score] : scores) {
    score /= qn * std::sqrt(std::max(DocLength(index, doc), 1.0));
  }
  return scores;
}

std::map<DocId, uint32_t> WindowMatches(const InvertedIndex& index,
                                        const QueryNode& node) {
  std::vector<std::string> terms;
  node.CollectTerms(terms);
  auto matches = WindowMatchFrequencies(index, terms,
                                        node.op == QueryOp::kOdn, node.window);
  EXPECT_TRUE(matches.ok()) << node.ToString();
  return matches.ok() ? *matches : std::map<DocId, uint32_t>{};
}

bool IsWindow(const QueryNode& node) {
  return node.op == QueryOp::kOdn || node.op == QueryOp::kUwn;
}

std::set<DocId> ReferenceBooleanSet(const InvertedIndex& index,
                                    const QueryNode& node) {
  std::set<DocId> out;
  if (IsWindow(node)) {
    for (const auto& [doc, tf] : WindowMatches(index, node)) out.insert(doc);
    return out;
  }
  switch (node.op) {
    case QueryOp::kTerm:
      for (const auto& [doc, tf] : DecodedTf(index, node.term)) out.insert(doc);
      return out;
    case QueryOp::kAnd:
      for (size_t i = 0; i < node.children.size(); ++i) {
        std::set<DocId> s = ReferenceBooleanSet(index, *node.children[i]);
        if (i == 0) {
          out = std::move(s);
          continue;
        }
        std::set<DocId> both;
        std::set_intersection(out.begin(), out.end(), s.begin(), s.end(),
                              std::inserter(both, both.end()));
        out = std::move(both);
      }
      return out;
    case QueryOp::kNot: {
      std::set<DocId> inner = ReferenceBooleanSet(index, *node.children[0]);
      index.ForEachDoc([&](DocId id, const DocInfo&) {
        if (inner.count(id) == 0) out.insert(id);
      });
      return out;
    }
    default:  // #or, #sum, #wsum, #max: union
      for (const auto& c : node.children) {
        std::set<DocId> s = ReferenceBooleanSet(index, *c);
        out.insert(s.begin(), s.end());
      }
      return out;
  }
}

ScoreMap ReferenceBoolean(const InvertedIndex& index, const QueryNode& query) {
  ScoreMap out;
  for (DocId d : ReferenceBooleanSet(index, query)) {
    if (index.IsAlive(d)) out[d] = 1.0;
  }
  return out;
}

/// The INQUERY belief formulas over decoded evidence: per evidence
/// term doc -> tf, per window node doc -> match count.
class ReferenceInquery {
 public:
  ReferenceInquery(const InvertedIndex& index, const QueryNode& query)
      : index_(index),
        n_(std::max<double>(index.doc_count(), 1.0)),
        avgdl_(std::max(index.avg_doc_length(), 1e-9)) {
    Collect(query);
  }

  ScoreMap Score(const QueryNode& query) const {
    std::set<DocId> candidates;
    for (const auto& [term, tfs] : tf_) {
      for (const auto& [doc, tf] : tfs) candidates.insert(doc);
    }
    for (const auto& [node, matches] : windows_) {
      for (const auto& [doc, tf] : matches) candidates.insert(doc);
    }
    ScoreMap out;
    for (DocId d : candidates) {
      if (!index_.IsAlive(d)) continue;
      out[d] = Belief(query, d, DocLength(index_, d));
    }
    return out;
  }

 private:
  static constexpr double kDb = 0.4;

  void Collect(const QueryNode& node) {
    if (IsWindow(node)) {
      windows_[&node] = WindowMatches(index_, node);
    } else if (node.op == QueryOp::kTerm) {
      tf_[node.term] = DecodedTf(index_, node.term);
    } else {
      for (const auto& c : node.children) Collect(*c);
    }
  }

  double Evidence(double tf, double df, double dl) const {
    double ntf = tf / (tf + 0.5 + 1.5 * dl / avgdl_);
    double nidf =
        std::log((n_ + 0.5) / std::max(df, 1.0)) / std::log(n_ + 1.0);
    nidf = std::max(0.0, std::min(1.0, nidf));
    return kDb + (1.0 - kDb) * ntf * nidf;
  }

  double Belief(const QueryNode& node, DocId doc, double dl) const {
    if (IsWindow(node)) {
      const auto& matches = windows_.at(&node);
      auto it = matches.find(doc);
      if (it == matches.end()) return kDb;
      return Evidence(static_cast<double>(it->second),
                      static_cast<double>(matches.size()), dl);
    }
    switch (node.op) {
      case QueryOp::kTerm: {
        const auto& tfs = tf_.at(node.term);
        auto it = tfs.find(doc);
        if (it == tfs.end()) return kDb;
        return Evidence(static_cast<double>(it->second),
                        static_cast<double>(index_.DocFreq(node.term)), dl);
      }
      case QueryOp::kAnd: {
        double b = 1.0;
        for (const auto& c : node.children) b *= Belief(*c, doc, dl);
        return node.children.empty() ? kDb : b;
      }
      case QueryOp::kOr: {
        double b = 1.0;
        for (const auto& c : node.children) b *= 1.0 - Belief(*c, doc, dl);
        return node.children.empty() ? kDb : 1.0 - b;
      }
      case QueryOp::kNot:
        return node.children.empty() ? kDb
                                     : 1.0 - Belief(*node.children[0], doc, dl);
      case QueryOp::kSum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        for (const auto& c : node.children) sum += Belief(*c, doc, dl);
        return sum / static_cast<double>(node.children.size());
      }
      case QueryOp::kWsum: {
        if (node.children.empty()) return 0.0;
        double sum = 0.0;
        double wsum = 0.0;
        for (size_t i = 0; i < node.children.size(); ++i) {
          double w = i < node.weights.size() ? node.weights[i] : 1.0;
          sum += w * Belief(*node.children[i], doc, dl);
          wsum += w;
        }
        return wsum > 0.0 ? sum / wsum : 0.0;
      }
      case QueryOp::kMax: {
        double best = 0.0;
        for (const auto& c : node.children) {
          best = std::max(best, Belief(*c, doc, dl));
        }
        return best;
      }
      default:
        return kDb;
    }
  }

  const InvertedIndex& index_;
  const double n_;
  const double avgdl_;
  std::map<std::string, std::map<DocId, uint32_t>> tf_;
  std::map<const QueryNode*, std::map<DocId, uint32_t>> windows_;
};

ScoreMap ReferenceScore(const std::string& model, const InvertedIndex& index,
                        const QueryNode& query) {
  if (model == "bm25") return ReferenceBm25(index, query);
  if (model == "vsm") return ReferenceVsm(index, query);
  if (model == "boolean") return ReferenceBoolean(index, query);
  return ReferenceInquery(index, query).Score(query);
}

void ExpectScoresMatchReference(const std::string& model_name,
                                const IrsCollection& coll) {
  auto model = MakeModel(model_name);
  ASSERT_TRUE(model.ok());
  std::vector<std::string> queries(std::begin(kRankedQueries),
                                   std::end(kRankedQueries));
  queries.insert(queries.end(),
                 {"#od3(shared topic)", "#uw8(shared rare)",
                  "shared topic shared", "#and(shared #or(shared rare))",
                  "#wsum(2 shared 1 #od3(shared topic) 1 #not(rare))"});
  for (const std::string& q : queries) {
    auto tree = ParseIrsQuery(q, coll.analyzer());
    ASSERT_TRUE(tree.ok()) << q;
    for (size_t s = 0; s < coll.num_shards(); ++s) {
      const InvertedIndex& index = coll.shard(s);
      auto scores = (*model)->Score(index, **tree);
      ASSERT_TRUE(scores.ok()) << q << ": " << scores.status().ToString();
      ScoreMap expected = ReferenceScore(model_name, index, **tree);
      ASSERT_EQ(scores->size(), expected.size()) << q << " shard " << s;
      for (const auto& [doc, score] : expected) {
        auto it = scores->find(doc);
        ASSERT_NE(it, scores->end()) << q << " doc " << doc;
        // Exact equality: same formula, same summation order.
        EXPECT_EQ(it->second, score) << q << " doc " << doc;
      }
    }
  }
}

TEST(PostingsOracleTest, ScoresMatchDecodedReference) {
  for (const char* model_name : {"boolean", "vsm", "bm25", "inquery"}) {
    SCOPED_TRACE(model_name);
    auto coll = BuildCollection(model_name);
    ExpectScoresMatchReference(model_name, *coll);
    // Tombstones stay in the postings until compaction; every model
    // must treat them as its reference does.
    for (int i = 0; i < 400; i += 9) {
      ASSERT_TRUE(coll->RemoveDocument("oid:" + std::to_string(i)).ok());
    }
    ASSERT_GT(coll->index().tombstone_count(), 0u);
    ExpectScoresMatchReference(model_name, *coll);
  }
}

TEST(PostingsOracleTest, CheckpointRoundTripIsBitIdentical) {
  for (const char* model_name : {"bm25", "vsm", "inquery"}) {
    SCOPED_TRACE(model_name);
    auto coll = BuildCollection(model_name);
    std::vector<std::vector<SearchHit>> before;
    for (const char* q : kRankedQueries) {
      auto hits = coll->Search(q);
      ASSERT_TRUE(hits.ok());
      before.push_back(std::move(*hits));
    }

    // Serialize -> RestoreIndex is the `.idx` checkpoint path
    // (IrsEngine::SaveTo / LoadFrom) without the file I/O.
    auto blob = coll->Serialize();
    ASSERT_TRUE(blob.ok()) << blob.status().ToString();
    auto model = MakeModel(model_name);
    ASSERT_TRUE(model.ok());
    IrsCollection restored("oracle", AnalyzerOptions{}, std::move(*model));
    ASSERT_TRUE(restored.RestoreIndex(*blob).ok());
    EXPECT_EQ(restored.CanonicalDigest(), coll->CanonicalDigest());

    for (size_t qi = 0; qi < std::size(kRankedQueries); ++qi) {
      auto hits = restored.Search(kRankedQueries[qi]);
      ASSERT_TRUE(hits.ok()) << kRankedQueries[qi];
      ASSERT_EQ(hits->size(), before[qi].size()) << kRankedQueries[qi];
      for (size_t i = 0; i < hits->size(); ++i) {
        EXPECT_EQ((*hits)[i].key, before[qi][i].key);
        EXPECT_EQ((*hits)[i].score, before[qi][i].score);
      }
      ExpectTopKMatchesPrefix(restored, kRankedQueries[qi]);
    }

    // Appending after a reload extends the restored blocks; queries see
    // both the restored and the new postings.
    ASSERT_TRUE(restored.AddDocument("oid:new", "shared topic rare").ok());
    auto hits = restored.Search("shared topic rare", 5);
    ASSERT_TRUE(hits.ok());
    ASSERT_FALSE(hits->empty());
    ExpectTopKMatchesPrefix(restored, "shared topic rare");
  }
}

}  // namespace
}  // namespace sdms::irs

// Oracle tests for the block-compressed postings path: the pruned
// top-k scorer, the cursor kernels, and a checkpoint round trip must all
// be bit-identical to the exhaustive / decoded reference paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "irs/collection.h"
#include "irs/index/postings_kernels.h"

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
    std::vector<std::vector<Posting>> decoded;
    for (const auto& t : terms) {
      auto postings = index.DecodePostings(t);
      ASSERT_TRUE(postings.ok());
      decoded.push_back(std::move(*postings));
    }
    std::vector<const std::vector<Posting>*> flat;
    for (const auto& l : decoded) flat.push_back(&l);

    std::vector<PostingsCursor> cursors;
    for (const auto& t : terms) cursors.push_back(index.OpenCursor(t));
    auto inter = IntersectCursors(std::move(cursors));
    ASSERT_TRUE(inter.ok());
    EXPECT_EQ(*inter, IntersectPostings(flat));

    cursors.clear();
    for (const auto& t : terms) cursors.push_back(index.OpenCursor(t));
    auto uni = UnionCursors(std::move(cursors));
    ASSERT_TRUE(uni.ok());
    EXPECT_EQ(*uni, UnionPostings(flat));
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

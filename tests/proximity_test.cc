#include "irs/index/proximity.h"

#include <gtest/gtest.h>

#include "irs/analysis/analyzer.h"
#include "irs/collection.h"

namespace sdms::irs {
namespace {

class ProximityTest : public testing::Test {
 protected:
  void SetUp() override {
    // Word positions:        0      1        2      3    4     5
    a_ = index_.AddDocument(
        "a", {"information", "retrieval", "systems", "and", "data",
              "management"});
    //                       0      1       2         3
    b_ = index_.AddDocument(
        "b", {"retrieval", "of", "information", "systems"});
    //                      0          1          2         3
    c_ = index_.AddDocument(
        "c", {"information", "shapes", "modern", "retrieval"});
    d_ = index_.AddDocument("d", {"unrelated", "words"});
  }

  /// Window-match count of `terms` in `doc` (0 when it has no match),
  /// read from the collection-wide WindowMatchFrequencies map.
  uint32_t Freq(const std::vector<std::string>& terms, DocId doc,
                bool ordered, uint32_t window) {
    auto freqs = WindowMatchFrequencies(index_, terms, ordered, window);
    EXPECT_TRUE(freqs.ok()) << freqs.status().ToString();
    if (!freqs.ok()) return 0;
    auto it = freqs->find(doc);
    return it == freqs->end() ? 0 : it->second;
  }
  uint32_t Ordered(const std::vector<std::string>& terms, DocId doc,
                   uint32_t max_gap) {
    return Freq(terms, doc, /*ordered=*/true, max_gap);
  }
  uint32_t Unordered(const std::vector<std::string>& terms, DocId doc,
                     uint32_t span) {
    return Freq(terms, doc, /*ordered=*/false, span);
  }

  InvertedIndex index_;
  DocId a_, b_, c_, d_;
};

TEST_F(ProximityTest, OrderedAdjacent) {
  // #phrase(information retrieval) = ordered, gap 1.
  EXPECT_EQ(Ordered({"information", "retrieval"}, a_, 1), 1u);
  EXPECT_EQ(Ordered({"information", "retrieval"}, b_, 1),
            0u);  // reversed order
  EXPECT_EQ(Ordered({"information", "retrieval"}, c_, 1),
            0u);  // too far apart
  EXPECT_EQ(Ordered({"information", "retrieval"}, d_, 1), 0u);  // absent
}

TEST_F(ProximityTest, OrderedLargestGapDoesNotWrap) {
  // In doc b "information" sits at position 2, and 2 + UINT32_MAX
  // wraps in 32 bits; the largest window must still accept any
  // forward gap.
  EXPECT_EQ(Ordered({"information", "systems"}, b_, UINT32_MAX), 1u);
  EXPECT_EQ(Ordered({"information", "retrieval"}, b_, UINT32_MAX),
            0u);  // still ordered
}

TEST_F(ProximityTest, OrderedWiderGap) {
  // Gap 3 reaches across "shapes modern" in doc c.
  EXPECT_EQ(Ordered({"information", "retrieval"}, c_, 3), 1u);
}

TEST_F(ProximityTest, OrderedThreeTerms) {
  EXPECT_EQ(Ordered({"information", "retrieval", "systems"}, a_, 1), 1u);
  EXPECT_EQ(Ordered({"information", "retrieval", "systems"}, b_, 1), 0u);
}

TEST_F(ProximityTest, OrderedNonOverlappingCount) {
  DocId doc = index_.AddDocument(
      "rep", {"x", "y", "pad", "x", "y", "pad", "x", "y"});
  EXPECT_EQ(Ordered({"x", "y"}, doc, 1), 3u);
  // Overlap suppressed: "x x y" counts once for (x y) with gap 2.
  DocId doc2 = index_.AddDocument("rep2", {"x", "x", "y"});
  EXPECT_EQ(Ordered({"x", "y"}, doc2, 2), 1u);
}

TEST_F(ProximityTest, UnorderedWindow) {
  // Any order within span.
  EXPECT_EQ(Unordered({"information", "retrieval"}, b_, 3), 1u);
  EXPECT_EQ(Unordered({"information", "retrieval"}, c_, 4), 1u);
  EXPECT_EQ(Unordered({"information", "retrieval"}, c_, 3),
            0u);  // span 4 needed (positions 0 and 3)
}

TEST_F(ProximityTest, WindowMatchFrequencies) {
  auto ordered = WindowMatchFrequencies(index_, {"information", "retrieval"},
                                        /*ordered=*/true, 1);
  ASSERT_TRUE(ordered.ok());
  ASSERT_EQ(ordered->size(), 1u);
  EXPECT_EQ(ordered->count(a_), 1u);
  auto unordered = WindowMatchFrequencies(index_, {"information", "retrieval"},
                                          /*ordered=*/false, 4);
  ASSERT_TRUE(unordered.ok());
  EXPECT_EQ(unordered->size(), 3u);  // a, b, c
}

TEST(ProximityQueryTest, PhraseThroughCollection) {
  auto model = MakeModel("inquery");
  ASSERT_TRUE(model.ok());
  AnalyzerOptions aopts;
  aopts.remove_stopwords = false;
  aopts.stem = false;
  IrsCollection coll("prox", aopts, std::move(*model));
  ASSERT_TRUE(
      coll.AddDocument("oid:1", "information retrieval systems rock").ok());
  ASSERT_TRUE(
      coll.AddDocument("oid:2", "retrieval of information is neat").ok());
  ASSERT_TRUE(coll.AddDocument("oid:3", "plain other text").ok());

  auto hits = coll.Search("#phrase(information retrieval)");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].key, "oid:1");

  auto uw = coll.Search("#uw4(information retrieval)");
  ASSERT_TRUE(uw.ok());
  EXPECT_EQ(uw->size(), 2u);

  // Bag-of-words matches both 1 and 2 equally well; the phrase ranks
  // doc 1 strictly above.
  auto bag = coll.Search("information retrieval");
  ASSERT_TRUE(bag.ok());
  EXPECT_EQ(bag->size(), 2u);
}

TEST(ProximityQueryTest, BooleanModelWindows) {
  auto model = MakeModel("boolean");
  ASSERT_TRUE(model.ok());
  AnalyzerOptions aopts;
  aopts.remove_stopwords = false;
  aopts.stem = false;
  IrsCollection coll("prox", aopts, std::move(*model));
  ASSERT_TRUE(coll.AddDocument("oid:1", "alpha beta gamma").ok());
  ASSERT_TRUE(coll.AddDocument("oid:2", "beta alpha gamma").ok());
  auto hits = coll.Search("#phrase(alpha beta)");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].key, "oid:1");
}

TEST(ProximityQueryTest, ParserValidation) {
  Analyzer analyzer{AnalyzerOptions{false, false, 1}};
  EXPECT_TRUE(ParseIrsQuery("#od3(alpha beta)", analyzer).ok());
  EXPECT_TRUE(ParseIrsQuery("#uw10(alpha beta gamma)", analyzer).ok());
  // One term only.
  EXPECT_FALSE(ParseIrsQuery("#phrase(alpha)", analyzer).ok());
  // Nested operator argument.
  EXPECT_FALSE(ParseIrsQuery("#od2(alpha #and(b c))", analyzer).ok());
  // Bad sizes.
  EXPECT_FALSE(ParseIrsQuery("#od(x y)", analyzer).ok());
  EXPECT_FALSE(ParseIrsQuery("#od0(x y)", analyzer).ok());
  EXPECT_FALSE(ParseIrsQuery("#odx(x y)", analyzer).ok());
  // Window renders back and re-parses.
  auto q = ParseIrsQuery("#od3(alpha beta)", analyzer);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->ToString(), "#od3(alpha beta)");
  EXPECT_TRUE(ParseIrsQuery((*q)->ToString(), analyzer).ok());
}

}  // namespace
}  // namespace sdms::irs

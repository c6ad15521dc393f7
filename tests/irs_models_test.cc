#include "irs/model/retrieval_model.h"

#include <gtest/gtest.h>

#include <map>

#include "irs/analysis/analyzer.h"

namespace sdms::irs {
namespace {

/// Builds a small fixed index:
///  doc0 "www www protocol"      doc1 "nii network"
///  doc2 "www nii"               doc3 "unrelated words here"
class ModelTest : public testing::Test {
 protected:
  void SetUp() override {
    AnalyzerOptions opts;
    opts.remove_stopwords = false;
    opts.stem = false;
    analyzer_ = std::make_unique<Analyzer>(opts);
    Add("oid:1", "www www protocol");
    Add("oid:2", "nii network");
    Add("oid:3", "www nii");
    Add("oid:4", "unrelated words here");
  }

  void Add(const std::string& key, const std::string& text) {
    index_.AddDocument(key, analyzer_->Analyze(text));
  }

  /// The model's scores keyed by doc id, after checking that its flat
  /// ScoreMap ascends strictly by doc id.
  StatusOr<std::map<DocId, double>> Score(const RetrievalModel& model,
                                          const std::string& q) {
    auto tree = ParseIrsQuery(q, *analyzer_);
    EXPECT_TRUE(tree.ok());
    SDMS_ASSIGN_OR_RETURN(ScoreMap flat, model.Score(index_, **tree));
    std::map<DocId, double> scores;
    for (const auto& [doc, score] : flat) {
      EXPECT_TRUE(scores.empty() || scores.rbegin()->first < doc) << q;
      scores[doc] = score;
    }
    return scores;
  }

  InvertedIndex index_;
  std::unique_ptr<Analyzer> analyzer_;
};

TEST_F(ModelTest, BooleanSingleTerm) {
  auto model = MakeBooleanModel();
  auto scores = Score(*model, "www");
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 2u);  // doc0, doc2
  EXPECT_EQ(scores->at(0), 1.0);
}

TEST_F(ModelTest, BooleanAnd) {
  auto model = MakeBooleanModel();
  auto scores = Score(*model, "#and(www nii)");
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 1u);
  EXPECT_TRUE(scores->count(2) > 0);  // doc2 only
}

TEST_F(ModelTest, BooleanOr) {
  auto model = MakeBooleanModel();
  auto scores = Score(*model, "#or(www nii)");
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ(scores->size(), 3u);
}

TEST_F(ModelTest, BooleanNot) {
  auto model = MakeBooleanModel();
  auto scores = Score(*model, "#and(www #not(nii))");
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 1u);
  EXPECT_TRUE(scores->count(0) > 0);  // doc0: www but not nii
}

TEST_F(ModelTest, VsmRanksHigherTfFirst) {
  auto model = MakeVectorSpaceModel();
  auto scores = Score(*model, "www");
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 2u);
  EXPECT_GT(scores->at(0), scores->at(2));  // doc0 has tf=2
}

TEST_F(ModelTest, VsmNoMatchEmpty) {
  auto model = MakeVectorSpaceModel();
  auto scores = Score(*model, "zzz");
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->empty());
}

TEST_F(ModelTest, Bm25RanksHigherTfFirst) {
  auto model = MakeBm25Model();
  auto scores = Score(*model, "www");
  ASSERT_TRUE(scores.ok());
  EXPECT_GT(scores->at(0), scores->at(2));
}

TEST_F(ModelTest, Bm25ScoresPositive) {
  auto model = MakeBm25Model();
  auto scores = Score(*model, "www nii");
  ASSERT_TRUE(scores.ok());
  for (const auto& [doc, s] : *scores) EXPECT_GT(s, 0.0);
}

TEST_F(ModelTest, InferenceNetBeliefsInRange) {
  auto model = MakeInferenceNetModel();
  auto scores = Score(*model, "#and(www nii)");
  ASSERT_TRUE(scores.ok());
  for (const auto& [doc, s] : *scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(ModelTest, InferenceNetAndPrefersBothTerms) {
  auto model = MakeInferenceNetModel();
  auto scores = Score(*model, "#and(www nii)");
  ASSERT_TRUE(scores.ok());
  // doc2 contains both; doc0 and doc1 contain one each.
  EXPECT_GT(scores->at(2), scores->at(0));
  EXPECT_GT(scores->at(2), scores->at(1));
}

TEST_F(ModelTest, InferenceNetMissingTermGetsDefaultBelief) {
  auto model = MakeInferenceNetModel(0.4);
  auto scores = Score(*model, "#and(www nii)");
  ASSERT_TRUE(scores.ok());
  // doc0 has www but not nii: its belief is bel(www) * 0.4 < 0.4 and
  // above 0.4*0.4.
  ASSERT_TRUE(scores->count(0) > 0);
  EXPECT_LT(scores->at(0), 0.4);
  EXPECT_GT(scores->at(0), 0.16);
}

TEST_F(ModelTest, InferenceNetOrAboveAnd) {
  auto model = MakeInferenceNetModel();
  auto and_scores = Score(*model, "#and(www nii)");
  auto or_scores = Score(*model, "#or(www nii)");
  ASSERT_TRUE(and_scores.ok());
  ASSERT_TRUE(or_scores.ok());
  for (const auto& [doc, s] : *and_scores) {
    EXPECT_GE(or_scores->at(doc), s);
  }
}

TEST_F(ModelTest, InferenceNetSumIsMean) {
  auto model = MakeInferenceNetModel();
  auto sum = Score(*model, "#sum(www nii)");
  auto www = Score(*model, "www");
  auto nii = Score(*model, "nii");
  ASSERT_TRUE(sum.ok());
  double b_www = www->count(2) ? www->at(2) : 0.4;
  double b_nii = nii->count(2) ? nii->at(2) : 0.4;
  EXPECT_NEAR(sum->at(2), (b_www + b_nii) / 2.0, 1e-12);
}

TEST_F(ModelTest, InferenceNetWsumWeighting) {
  auto model = MakeInferenceNetModel();
  auto heavy_www = Score(*model, "#wsum(10 www 1 nii)");
  auto heavy_nii = Score(*model, "#wsum(1 www 10 nii)");
  ASSERT_TRUE(heavy_www.ok());
  ASSERT_TRUE(heavy_nii.ok());
  // doc0 (www only) prefers the www-weighted query.
  EXPECT_GT(heavy_www->at(0), heavy_nii->at(0));
}

TEST_F(ModelTest, InferenceNetMax) {
  auto model = MakeInferenceNetModel();
  auto scores = Score(*model, "#max(www nii)");
  auto www = Score(*model, "www");
  ASSERT_TRUE(scores.ok());
  EXPECT_GE(scores->at(0), www->at(0) - 1e-12);
}

TEST(MakeModelTest, Factory) {
  EXPECT_TRUE(MakeModel("boolean").ok());
  EXPECT_TRUE(MakeModel("vsm").ok());
  EXPECT_TRUE(MakeModel("bm25").ok());
  EXPECT_TRUE(MakeModel("inquery").ok());
  EXPECT_FALSE(MakeModel("nope").ok());
  EXPECT_EQ((*MakeModel("inquery"))->name(), "inquery");
}

}  // namespace
}  // namespace sdms::irs

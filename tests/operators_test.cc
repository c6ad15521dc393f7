#include <gtest/gtest.h>

#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;

/// The duplicated-operator tests (Section 4.5.4): evaluating an
/// operator tree inside the DBMS over buffered single-term results must
/// reproduce the IRS's own scores exactly, because the coupling knows
/// the exact semantics of the INQUERY operators.
class OperatorsTest : public testing::Test {
 protected:
  void SetUp() override {
    sys_ = MakeFigure4System();
    coll_ = *sys_->coupling->GetCollectionByName("paras");
  }

  void ExpectSameScores(const std::string& query) {
    auto in_dbms = coll_->EvalOperatorsInDbms(query);
    ASSERT_TRUE(in_dbms.ok()) << in_dbms.status().ToString();
    auto in_irs = coll_->GetIrsResult(query);
    ASSERT_TRUE(in_irs.ok());
    ASSERT_FALSE((*in_irs)->empty());
    // Every IRS hit is matched, to the bit, by the DBMS-side combination.
    for (const auto& [oid, score] : **in_irs) {
      ASSERT_TRUE(in_dbms->count(oid) > 0) << oid.ToString();
      EXPECT_EQ(in_dbms->at(oid), score) << oid.ToString();
    }
    // And the DBMS side introduces no spurious candidates.
    for (const auto& [oid, score] : *in_dbms) {
      EXPECT_TRUE(in_irs.value()->count(oid) > 0) << oid.ToString();
    }
  }

  std::unique_ptr<testutil::CoupledSystem> sys_;
  Collection* coll_ = nullptr;
};

TEST_F(OperatorsTest, AndMatchesIrs) { ExpectSameScores("#and(www nii)"); }

TEST_F(OperatorsTest, OrMatchesIrs) { ExpectSameScores("#or(www nii)"); }

TEST_F(OperatorsTest, SumMatchesIrs) { ExpectSameScores("#sum(www nii)"); }

TEST_F(OperatorsTest, MaxMatchesIrs) { ExpectSameScores("#max(www nii)"); }

TEST_F(OperatorsTest, WsumMatchesIrs) {
  ExpectSameScores("#wsum(2 www 1 nii)");
}

TEST_F(OperatorsTest, NestedMatchesIrs) {
  ExpectSameScores("#and(www #or(nii www))");
}

TEST_F(OperatorsTest, OperandWithoutEvidenceTakesItsNullBelief) {
  // Paragraph P2 holds "p2" but neither "www" nor "nii": it is absent
  // from the #and operand, whose null belief is 0.4 * 0.4, not 0.4.
  ExpectSameScores("#or(#and(www nii) p2)");
}

// "the" is a stopword, so the stop list empties #max(the). Like the IRS,
// the DBMS side and the null score give an empty #max belief 0 (not the
// default belief): no represented paragraph without "www" may outrank
// one with it.
TEST_F(OperatorsTest, AndWithEmptiedOperandMatchesIrs) {
  ExpectSameScores("#and(www #max(the))");
  auto null_score = coll_->NullScore("#and(www #max(the))");
  ASSERT_TRUE(null_score.ok());
  EXPECT_EQ(*null_score, 0.0);
}

TEST_F(OperatorsTest, SumWithEmptiedOperandMatchesIrs) {
  ExpectSameScores("#sum(www #max(the))");
  auto null_score = coll_->NullScore("#sum(www #max(the))");
  ASSERT_TRUE(null_score.ok());
  EXPECT_EQ(*null_score, 0.2);  // (0.4 + 0.0) / 2
}

TEST_F(OperatorsTest, BufferedOperandsAvoidIrsCalls) {
  // Warm the single-term buffers.
  ASSERT_TRUE(coll_->GetIrsResult("www").ok());
  ASSERT_TRUE(coll_->GetIrsResult("nii").ok());
  uint64_t irs_calls = coll_->stats().irs_queries;
  auto result = coll_->EvalOperatorsInDbms("#and(www nii)");
  ASSERT_TRUE(result.ok());
  // The compound query required no further IRS call.
  EXPECT_EQ(coll_->stats().irs_queries, irs_calls);
  EXPECT_FALSE(result->empty());
}

TEST_F(OperatorsTest, AndRanksP4Highest) {
  // Figure 4: P4 is the only paragraph relevant to both terms, so it
  // must receive the highest #and value.
  auto result = coll_->EvalOperatorsInDbms("#and(www nii)");
  ASSERT_TRUE(result.ok());
  // Find P4: the paragraph whose text contains both terms.
  Oid best;
  double best_score = -1;
  for (const auto& [oid, score] : *result) {
    if (score > best_score) {
      best_score = score;
      best = oid;
    }
  }
  auto text = sys_->coupling->SubtreeText(best);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("www"), std::string::npos);
  EXPECT_NE(text->find("nii"), std::string::npos);
  EXPECT_NE(text->find("P4"), std::string::npos);
}

// #not folds like every other operator: its candidates are the
// documents with evidence for the operand, as in the IRS. A represented
// document without evidence scores the query's null belief, 1 - 0.4.
TEST_F(OperatorsTest, NotMatchesIrs) {
  ExpectSameScores("#not(www)");
  auto null_score = coll_->NullScore("#not(www)");
  ASSERT_TRUE(null_score.ok());
  EXPECT_NEAR(*null_score, 0.6, 1e-12);
  auto www = coll_->GetIrsResult("www");
  ASSERT_TRUE(www.ok());
  size_t without_evidence = 0;
  for (Oid p : coll_->represented()) {
    if ((*www)->count(p) > 0) continue;
    auto value = coll_->FindIrsValue("#not(www)", p);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, *null_score) << p.ToString();
    ++without_evidence;
  }
  EXPECT_GT(without_evidence, 0u);
}

TEST_F(OperatorsTest, AndNotMatchesIrs) {
  ExpectSameScores("#and(www #not(nii))");
}

TEST_F(OperatorsTest, OrNotMatchesIrs) {
  ExpectSameScores("#or(#not(www) nii)");
}

}  // namespace
}  // namespace sdms::coupling

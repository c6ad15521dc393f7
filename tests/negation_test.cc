// Section 6 of the paper: "bringing together the different assumptions
// ('Open World' vs 'Closed World') is far from trivial. Negation, for
// example, has a different meaning in both worlds."
//
// These tests pin down how the two negations behave in this system so
// the difference is explicit and stable:
//  * VQL NOT is closed-world: it negates a crisp predicate over the
//    database extent.
//  * IRS #not is open-world-ish: it produces graded complement beliefs
//    (1 - b), and under the Boolean model set complement *within the
//    collection* — objects outside the collection are simply unknown.

#include <gtest/gtest.h>

#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;

TEST(NegationTest, ClosedWorldVqlNot) {
  auto sys = MakeFigure4System();
  // NOT over a crisp threshold predicate: partitions the extent.
  auto pos = sys->coupling->query_engine().Run(
      "ACCESS p FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5");
  auto neg = sys->coupling->query_engine().Run(
      "ACCESS p FROM p IN PARA "
      "WHERE NOT (p -> getIRSValue('paras', 'www') > 0.5)");
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(pos->rows.size() + neg->rows.size(),
            sys->db->Extent("PARA").size());
}

TEST(NegationTest, GradedIrsNotIsNotSetComplement) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  // #not(www) under the inference model assigns *every* represented
  // object a graded belief — it does not select the crisp complement
  // set. The IRS result holds 1 - bel(www) for the paragraphs with
  // evidence; every other represented paragraph scores the query's
  // null belief 1 - 0.4 through findIRSValue.
  auto result = coll->EvalOperatorsInDbms("#not(www)");
  ASSERT_TRUE(result.ok());
  auto null_score = coll->NullScore("#not(www)");
  ASSERT_TRUE(null_score.ok());
  EXPECT_NEAR(*null_score, 0.6, 1e-12);
  // The crisp VQL complement above has 6 members; thresholding the
  // graded #not at 0.5 gives a different (here: larger) set than the
  // crisp complement of the 0.5-threshold positives — the two
  // negations do not commute through thresholds.
  size_t above_half = 0;
  for (Oid p : coll->represented()) {
    auto it = result->find(p);
    double score = it == result->end() ? *null_score : it->second;
    auto value = coll->FindIrsValue("#not(www)", p);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, score) << p.ToString();
    if (score > 0.5) ++above_half;
  }
  EXPECT_EQ(above_half, 6u);  // complement of the 5 www paragraphs
  // But at a different threshold the asymmetry shows: bel(www) in
  // (0.4, 0.5] paragraphs are in *neither* crisp set.
  auto www = coll->GetIrsResult("www");
  ASSERT_TRUE(www.ok());
  for (const auto& [oid, score] : **www) {
    // Graded negation keeps the score information; closed-world NOT
    // throws it away.
    EXPECT_NEAR(result->at(oid), 1.0 - score, 1e-12);
  }
}

TEST(NegationTest, BooleanNotComplementsWithinCollectionOnly) {
  auto sys = MakeFigure4System();
  // A Boolean collection over the paragraphs of M1 and M2 only.
  auto coll = sys->coupling->CreateCollection("m12", "boolean");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(
      (*coll)
          ->IndexObjects(
              "ACCESS p FROM p IN PARA, d IN MMFDOC "
              "WHERE p -> getContaining('MMFDOC') == d AND "
              "(d -> getAttributeValue('DOCID') == 'M1' OR "
              " d -> getAttributeValue('DOCID') == 'M2')",
              kTextModeSubtree)
          .ok());
  ASSERT_EQ((*coll)->represented_count(), 6u);
  // #not(www) complements within the 6 represented paragraphs — the
  // paragraphs of M3/M4 are outside this collection's world entirely.
  auto result = (*coll)->GetIrsResult("#not(www)");
  ASSERT_TRUE(result.ok());
  // M1: P1 has www, P2/P3 don't; M2: P4 has www, P5/P6 don't.
  EXPECT_EQ((*result)->size(), 4u);
  for (const auto& [oid, score] : **result) {
    EXPECT_TRUE((*coll)->Represents(oid));
  }
}

TEST(NegationTest, MixedQueryCombiningBothNegations) {
  auto sys = MakeFigure4System();
  // Paragraphs NOT relevant to www (closed-world over the graded
  // value) but relevant to nii: P8 only.
  auto r = sys->coupling->query_engine().Run(
      "ACCESS p FROM p IN PARA "
      "WHERE NOT (p -> getIRSValue('paras', 'www') > 0.5) AND "
      "p -> getIRSValue('paras', 'nii') > 0.5");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  auto text = sys->coupling->SubtreeText(r->rows[0][0].as_oid());
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("P8"), std::string::npos);
}

}  // namespace
}  // namespace sdms::coupling

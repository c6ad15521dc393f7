#include "coupling/mixed_query.h"

#include <gtest/gtest.h>

#include <set>

#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

using testutil::MakeCoupledSystem;
using testutil::MakeFigure4System;
using Strategy = MixedQueryEvaluator::Strategy;

std::set<uint64_t> RowOids(const oodb::vql::QueryResult& r, size_t col = 0) {
  std::set<uint64_t> out;
  for (const auto& row : r.rows) {
    if (row[col].is_oid()) out.insert(row[col].as_oid().raw());
  }
  return out;
}

TEST(MixedQueryTest, StrategiesReturnSameRows) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string query =
      "ACCESS p FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5";
  auto independent = eval.Run(query, Strategy::kIndependent);
  ASSERT_TRUE(independent.ok());
  auto irs_first = eval.Run(query, Strategy::kIrsFirst);
  ASSERT_TRUE(irs_first.ok());
  EXPECT_EQ(RowOids(*independent), RowOids(*irs_first));
  EXPECT_EQ(independent->rows.size(), 5u);
}

TEST(MixedQueryTest, IrsFirstRestrictsCandidates) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string query =
      "ACCESS p FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5";
  ASSERT_TRUE(eval.Run(query, Strategy::kIrsFirst).ok());
  EXPECT_EQ(eval.last_run().irs_restrictions, 1u);
  EXPECT_EQ(eval.last_run().irs_candidates, 5u);
  // Only the IRS-selected paragraphs were scanned by the DBMS.
  EXPECT_EQ(sys->coupling->query_engine().last_stats().bindings_scanned, 5u);

  // The independent strategy scans the whole extent.
  ASSERT_TRUE(eval.Run(query, Strategy::kIndependent).ok());
  EXPECT_EQ(sys->coupling->query_engine().last_stats().bindings_scanned, 11u);
}

TEST(MixedQueryTest, MixedStructureAndContent) {
  auto sys = MakeFigure4System();
  // Structure part: only paragraphs of document M4; content: www.
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string query =
      "ACCESS p FROM p IN PARA, d IN MMFDOC "
      "WHERE p -> getContaining('MMFDOC') == d AND "
      "d -> getAttributeValue('DOCID') == 'M4' AND "
      "p -> getIRSValue('paras', 'www') > 0.5";
  auto r1 = eval.Run(query, Strategy::kIndependent);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto r2 = eval.Run(query, Strategy::kIrsFirst);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows.size(), 2u);  // P9, P10.
  EXPECT_EQ(RowOids(*r1), RowOids(*r2));
}

TEST(MixedQueryTest, PaperQueryTwoRunsEndToEnd) {
  // Section 4.4 second query: documents of 1994 with a www-relevant
  // paragraph immediately followed by an nii-relevant one. In Figure 4
  // only M3 qualifies (P7 www, P8 nii adjacent).
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string query =
      "ACCESS d -> getAttributeValue('DOCID') "
      "FROM d IN MMFDOC, p1 IN PARA, p2 IN PARA "
      "WHERE d -> getAttributeValue('YEAR') == 1994 AND "
      "p1 -> getNext() == p2 AND "
      "p1 -> getContaining('MMFDOC') == d AND "
      "p1 -> getIRSValue('paras', 'www') > 0.4 AND "
      "p2 -> getIRSValue('paras', 'nii') > 0.4";
  auto result = eval.Run(query, Strategy::kIndependent);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].as_string(), "M3");

  auto result2 = eval.Run(query, Strategy::kIrsFirst);
  ASSERT_TRUE(result2.ok());
  ASSERT_EQ(result2->rows.size(), 1u);
  EXPECT_EQ(result2->rows[0][0].as_string(), "M3");
  // Both content conjuncts became candidate restrictions.
  EXPECT_EQ(eval.last_run().irs_restrictions, 2u);
}

TEST(MixedQueryTest, ThresholdVariants) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  // Mirrored comparison (literal < call) is recognized too.
  auto r = eval.Run(
      "ACCESS p FROM p IN PARA WHERE 0.5 < p -> getIRSValue('paras', 'www')",
      Strategy::kIrsFirst);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(eval.last_run().irs_restrictions, 1u);
  EXPECT_EQ(r->rows.size(), 5u);
}

TEST(MixedQueryTest, MultipleRestrictionsIntersect) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  // Only P4 carries both terms.
  auto r = eval.Run(
      "ACCESS p FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5 AND "
      "p -> getIRSValue('paras', 'nii') > 0.5",
      Strategy::kIrsFirst);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
  auto text = sys->coupling->SubtreeText(
      oodb::Value(r->rows[0][0]).as_oid());
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("P4"), std::string::npos);
}

TEST(MixedQueryTest, IrsFirstLeavesUnrepresentedClassToIndependent) {
  // `paras` represents PARA only; MMFDOC values are derived from the
  // paragraphs, so IRS-first must not restrict `d` to PARA OIDs.
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string query =
      "ACCESS d FROM d IN MMFDOC WHERE d.YEAR == 1994 AND "
      "d -> getIRSValue('paras', 'www') > 0.45";
  auto independent = eval.Run(query, Strategy::kIndependent);
  ASSERT_TRUE(independent.ok()) << independent.status().ToString();
  auto irs_first = eval.Run(query, Strategy::kIrsFirst);
  ASSERT_TRUE(irs_first.ok()) << irs_first.status().ToString();
  EXPECT_EQ(eval.last_run().irs_restrictions, 0u);
  EXPECT_FALSE(independent->rows.empty());
  EXPECT_EQ(RowOids(*independent), RowOids(*irs_first));
}

TEST(MixedQueryTest, DerivedValuesNeverBecomeIrsFirstCandidates) {
  // Deriving MMFDOC values caches the values of documents and sections
  // in the buffer entry of the query. IRS-first over PARA must still see
  // only what the IRS returned, or those objects become PARA rows.
  auto sys = MakeCoupledSystem();
  sgml::CorpusOptions corpus;
  corpus.num_docs = 200;
  corpus.seed = 1;
  testutil::StoreCorpus(*sys, sgml::CorpusGenerator(corpus).Generate());
  auto coll = sys->coupling->CreateCollection("paras", "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(
      (*coll)->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree).ok());
  // A single term's null belief is the default belief 0.4, so "> 0.4"
  // keeps exactly the paragraphs with evidence and IRS-first applies.
  auto null_score = (*coll)->NullScore("www");
  ASSERT_TRUE(null_score.ok());
  ASSERT_DOUBLE_EQ(*null_score, 0.4);

  MixedQueryEvaluator eval(sys->coupling.get());
  auto docs = eval.Run(
      "ACCESS d FROM d IN MMFDOC WHERE d -> getIRSValue('paras', 'www') > 0",
      Strategy::kIndependent);
  ASSERT_TRUE(docs.ok()) << docs.status().ToString();
  EXPECT_EQ(docs->rows.size(), corpus.num_docs);

  const std::string query =
      "ACCESS p FROM p IN PARA WHERE p -> getIRSValue('paras', 'www') > 0.4";
  auto irs_first = eval.Run(query, Strategy::kIrsFirst);
  ASSERT_TRUE(irs_first.ok()) << irs_first.status().ToString();
  EXPECT_EQ(eval.last_run().irs_restrictions, 1u);
  auto independent = eval.Run(query, Strategy::kIndependent);
  ASSERT_TRUE(independent.ok()) << independent.status().ToString();
  EXPECT_FALSE(independent->rows.empty());
  EXPECT_EQ(RowOids(*irs_first), RowOids(*independent));
  for (uint64_t raw : RowOids(*irs_first)) {
    auto cls = sys->db->ClassOf(Oid(raw));
    ASSERT_TRUE(cls.ok());
    EXPECT_EQ(*cls, "PARA") << Oid(raw).ToString();
  }
}

TEST(MixedQueryTest, UnknownCollectionFails) {
  auto sys = MakeFigure4System();
  MixedQueryEvaluator eval(sys->coupling.get());
  auto r = eval.Run(
      "ACCESS p FROM p IN PARA WHERE p -> getIRSValue('nope', 'x') > 0.5",
      Strategy::kIrsFirst);
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace sdms::coupling

#include "coupling/mixed_query.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/obs/metrics.h"
#include "common/obs/profile.h"
#include "common/query_context.h"
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

/// A 100-document corpus with a paragraph-level "paras" collection.
std::unique_ptr<testutil::CoupledSystem> MakeCorpusSystem(
    CouplingOptions options = CouplingOptions()) {
  auto sys = MakeCoupledSystem(options);
  sgml::CorpusOptions corpus;
  corpus.num_docs = 100;
  corpus.seed = 1;
  testutil::StoreCorpus(*sys, sgml::CorpusGenerator(corpus).Generate());
  auto coll = sys->coupling->CreateCollection("paras", "inquery");
  EXPECT_TRUE(coll.ok());
  EXPECT_TRUE(
      (*coll)->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree).ok());
  return sys;
}

/// Same rows in the same order, with bit-identical scores.
void ExpectBitIdenticalRows(const oodb::vql::QueryResult& a,
                            const oodb::vql::QueryResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size());
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const oodb::Value& x = a.rows[r][c];
      const oodb::Value& y = b.rows[r][c];
      ASSERT_EQ(x.type(), y.type()) << "row " << r << " col " << c;
      if (x.is_real()) {
        double dx = x.as_real();
        double dy = y.as_real();
        EXPECT_EQ(std::memcmp(&dx, &dy, sizeof dx), 0)
            << "row " << r << " col " << c << ": " << dx << " vs " << dy;
      } else {
        EXPECT_TRUE(x.Equals(y)) << "row " << r << " col " << c;
      }
    }
  }
}

TEST(MixedQueryTest, BoundCallsMatchPerBindingEvaluation) {
  // Buffering on binds each getIRSValue call to its pinned result;
  // disable_buffering evaluates every binding through FindIrsValue.
  // Both must produce the same rows and scores, bit for bit, under
  // every derivation scheme.
  CouplingOptions unbuffered;
  unbuffered.disable_buffering = true;
  const std::string call = "p -> getIRSValue('paras', 'www')";
  const std::string doc_call = "d -> getIRSValue('paras', 'www')";
  const std::string doc_and_call =
      "d -> getIRSValue('paras', '#and(www nii)')";
  const std::vector<std::string> statements = {
      // A full PARA scan: every paragraph passes, most at the null score.
      "ACCESS p, " + call + " FROM p IN PARA WHERE " + call + " > 0",
      // SELECT and ORDER BY reuse the WHERE call's pinned result.
      "ACCESS p, " + call + " FROM p IN PARA WHERE " + call +
          " > 0.4 ORDER BY " + call + " DESC",
      "ACCESS p FROM p IN PARA WHERE " + call + " >= 0.45",
      "ACCESS p FROM p IN PARA WHERE 0.45 < " + call,
      // MMFDOC values are derived from the paragraphs (Figure 3).
      "ACCESS d, " + doc_call + " FROM d IN MMFDOC WHERE " + doc_call +
          " > 0.4 ORDER BY " + doc_call + " DESC",
      // The subquery scheme derives from the subqueries' values.
      "ACCESS d, " + doc_and_call + " FROM d IN MMFDOC WHERE " +
          doc_and_call + " > 0",
  };
  for (const char* scheme : {"max", "avg", "wtype", "length", "subquery"}) {
    SCOPED_TRACE(scheme);
    auto bound = MakeCorpusSystem();
    auto per_binding = MakeCorpusSystem(unbuffered);
    for (auto* sys : {bound.get(), per_binding.get()}) {
      auto coll = sys->coupling->GetCollectionByName("paras");
      ASSERT_TRUE(coll.ok());
      ASSERT_TRUE((*coll)->SetDerivationScheme(scheme).ok());
    }
    MixedQueryEvaluator bound_eval(bound->coupling.get());
    MixedQueryEvaluator per_binding_eval(per_binding->coupling.get());
    for (const std::string& vql : statements) {
      SCOPED_TRACE(vql);
      // Twice on the bound side: the second run answers derived values
      // from the side table instead of deriving them.
      for (int run = 0; run < 2; ++run) {
        auto got = bound_eval.Run(vql, Strategy::kIndependent);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        auto want = per_binding_eval.Run(vql, Strategy::kIndependent);
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_FALSE(want->rows.empty());
        ExpectBitIdenticalRows(*got, *want);
      }
    }
  }
}

TEST(MixedQueryTest, BoundCallCursorRestartsForInnerBindings) {
  // Fewer MMFDOCs than PARAs, so the plan binds d outside p: the
  // receivers of the bound p-call restart from the first PARA for every
  // document. Each value must equal FindIrsValue's, bit for bit, and
  // every evaluation is still booked as one buffer hit.
  auto sys = MakeCorpusSystem();
  Collection* coll = *sys->coupling->GetCollectionByName("paras");
  MixedQueryEvaluator eval(sys->coupling.get());
  const std::string call = "p -> getIRSValue('paras', 'www')";
  const std::string doc_call = "d -> getIRSValue('paras', 'www')";
  const std::string vql = "ACCESS d, p, " + call + ", " + doc_call +
                          " FROM d IN MMFDOC, p IN PARA WHERE " + call +
                          " > 0.4 AND " + doc_call + " > 0.45";
  ASSERT_TRUE(eval.Run(vql, Strategy::kIndependent).ok());  // buffers www
  const uint64_t hits_before = coll->buffer().hits();
  auto r = eval.Run(vql, Strategy::kIndependent);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const uint64_t bound_hits = coll->buffer().hits() - hits_before;
  ASSERT_FALSE(r->rows.empty());
  std::set<uint64_t> docs = RowOids(*r, 0);
  EXPECT_GT(docs.size(), 1u) << "inner receivers never restarted";
  for (const auto& row : r->rows) {
    for (auto [obj_col, value_col] : {std::pair{1, 2}, std::pair{0, 3}}) {
      auto want = coll->FindIrsValue("www", row[obj_col].as_oid());
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      double got = row[value_col].as_real();
      EXPECT_EQ(std::memcmp(&got, &*want, sizeof got), 0)
          << row[obj_col].as_oid().ToString() << ": " << got << " vs "
          << *want;
    }
  }
  // WHERE evaluates the d-call once per document and the p-call once
  // per (qualifying document, paragraph) pair; SELECT evaluates both
  // per row; the prepare stage reads the buffer once per call.
  size_t qualifying_docs = 0;
  for (Oid d : sys->db->Extent("MMFDOC")) {
    if (*coll->FindIrsValue("www", d) > 0.45) ++qualifying_docs;
  }
  EXPECT_EQ(qualifying_docs, docs.size());
  const uint64_t evaluations = sys->db->ExtentSize("MMFDOC") +
                               qualifying_docs * sys->db->ExtentSize("PARA") +
                               2 * r->rows.size();
  EXPECT_EQ(bound_hits, evaluations + 2);
  // The same statement evaluated per binding, without a pinned result.
  CouplingOptions unbuffered;
  unbuffered.disable_buffering = true;
  auto per_binding = MakeCorpusSystem(unbuffered);
  MixedQueryEvaluator per_binding_eval(per_binding->coupling.get());
  auto want = per_binding_eval.Run(vql, Strategy::kIndependent);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectBitIdenticalRows(*r, *want);
}

TEST(MixedQueryTest, BoundCallKeepsSubclassOverride) {
  auto sys = MakeFigure4System();
  // PARA overrides getIRSValue; the other IRSObject classes inherit it.
  int override_calls = 0;
  sys->db->methods().Register(
      "PARA", "getIRSValue",
      [&](const oodb::MethodContext&, Oid,
          const std::vector<oodb::Value>&) -> StatusOr<oodb::Value> {
        ++override_calls;
        return oodb::Value(0.99);
      });
  MixedQueryEvaluator eval(sys->coupling.get());
  auto r = eval.Run(
      "ACCESS x FROM x IN IRSObject "
      "WHERE x -> getIRSValue('paras', 'www') > 0.5",
      Strategy::kIndependent);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const size_t paras = sys->db->ExtentSize("PARA");
  EXPECT_EQ(override_calls, static_cast<int>(paras));
  size_t para_rows = 0;
  for (uint64_t raw : RowOids(*r)) {
    if (*sys->db->ClassOf(Oid(raw)) == "PARA") ++para_rows;
  }
  EXPECT_EQ(para_rows, paras);
  // Derived document values (through the bound call) qualify too.
  EXPECT_GT(r->rows.size(), paras);
}

TEST(MixedQueryTest, BoundScanBooksOneHitPerEvaluation) {
  auto sys = MakeCorpusSystem();
  Collection* coll = *sys->coupling->GetCollectionByName("paras");
  const std::string call = "p -> getIRSValue('paras', 'www')";
  const std::string vql =
      "ACCESS p, " + call + " FROM p IN PARA WHERE " + call + " > 0.4";
  MixedQueryEvaluator eval(sys->coupling.get());
  ASSERT_TRUE(eval.Run(vql, Strategy::kIndependent).ok());  // buffers www

  obs::Counter& global = obs::GetCounter("coupling.result_buffer.hits");
  const uint64_t buffer_before = coll->buffer().hits();
  const uint64_t stats_before = coll->stats().buffer_hits;
  const uint64_t global_before = global.value();
  QueryContext ctx;
  auto profile = std::make_shared<obs::QueryProfile>(ctx.query_id());
  ctx.set_profile(profile);
  StatusOr<oodb::vql::QueryResult> r = Status::Internal("not run");
  {
    QueryContext::Scope scope(&ctx);
    r = eval.Run(vql, Strategy::kIndependent);
  }
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r->rows.empty());
  // One evaluation per PARA binding in WHERE and one per row in SELECT,
  // plus the prepare stage's warm-up read of the buffer.
  const uint64_t evaluations = sys->db->ExtentSize("PARA") + r->rows.size();
  EXPECT_EQ(coll->buffer().hits() - buffer_before, evaluations + 1);
  EXPECT_EQ(coll->stats().buffer_hits - stats_before, evaluations + 1);
  EXPECT_EQ(global.value() - global_before, evaluations + 1);
  EXPECT_EQ(profile->TotalCounter("buffer_hits"), evaluations + 1);
  // The bound evaluations are booked under `join` itself; none opens a
  // `buffer_lookup` stage.
  const obs::QueryProfile::Stage* join = nullptr;
  for (const auto& stage : profile->root()->children) {
    if (stage->name == "join") join = stage.get();
  }
  ASSERT_NE(join, nullptr) << profile->Render();
  EXPECT_EQ(join->counters.at("buffer_hits"), evaluations);
  EXPECT_TRUE(join->children.empty()) << profile->Render();
}

TEST(MixedQueryTest, IrsFirstRestrictionSurvivesANestedRun) {
  // Two collections over PARA; a new paragraph leaves an insert pending
  // on the second. IRS-first restricts `p` through the first
  // collection; the second's conjunct cannot restrict (every object
  // passes `>= 0`), so the statement's prepare hook warms it, and its
  // propagation runs SatisfiesSpec — a nested Run — for the insert.
  // The outer statement must still scan only the IRS candidates.
  auto sys = MakeFigure4System();
  auto second = sys->coupling->CreateCollection("paras2", "inquery");
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE((*second)
                  ->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree)
                  .ok());
  oodb::Database& db = *sys->db;
  oodb::TxnId txn = db.Begin();
  Oid para = *db.CreateObject("PARA", txn);
  ASSERT_TRUE(db.SetAttribute(para, "GI", oodb::Value("PARA"), txn).ok());
  ASSERT_TRUE(
      db.SetAttribute(para, "TEXT", oodb::Value("www www www"), txn).ok());
  ASSERT_TRUE(db.SetAttribute(para, "CHILDREN",
                              oodb::Value(oodb::ValueList{}), txn)
                  .ok());
  ASSERT_TRUE(db.Commit(txn).ok());
  ASSERT_GT((*second)->pending_updates(), 0u);

  MixedQueryEvaluator eval(sys->coupling.get());
  auto r = eval.Run(
      "ACCESS p FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5 "
      "AND p -> getIRSValue('paras2', 'www') >= 0",
      Strategy::kIrsFirst);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*second)->pending_updates(), 0u);
  EXPECT_EQ(eval.last_run().irs_restrictions, 1u);
  ASSERT_GT(eval.last_run().irs_candidates, 0u);
  EXPECT_LT(eval.last_run().irs_candidates, sys->db->ExtentSize("PARA"));
  // The stats are the outer Run's own, not the nested one's.
  EXPECT_EQ(sys->coupling->query_engine().last_stats().bindings_scanned,
            eval.last_run().irs_candidates);
  EXPECT_EQ(r->rows.size(), eval.last_run().irs_candidates);
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

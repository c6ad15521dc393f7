// Tests for the extension features: Rocchio relevance feedback (the
// paper's Section 6 names relevance feedback an open facet), the
// collection-choice policies of Section 4.5.1, and range-index use in
// the VQL optimizer.

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "coupling_test_util.h"
#include "irs/feedback/rocchio.h"
#include "oodb/builtins.h"

namespace sdms::coupling {
namespace {

using testutil::MakeCoupledSystem;
using testutil::MakeFigure4System;

// --- Rocchio feedback ------------------------------------------------

class FeedbackTest : public testing::Test {
 protected:
  void SetUp() override {
    auto model = irs::MakeModel("inquery");
    ASSERT_TRUE(model.ok());
    irs::AnalyzerOptions aopts;
    aopts.remove_stopwords = false;
    aopts.stem = false;
    coll_ = std::make_unique<irs::IrsCollection>("fb", aopts,
                                                 std::move(*model));
    // Relevant docs share "browser" and "mosaic" besides "www".
    ASSERT_TRUE(coll_->AddDocument(
                       "oid:1", "www browser mosaic navigation history www")
                    .ok());
    ASSERT_TRUE(
        coll_->AddDocument("oid:2", "www browser mosaic rendering").ok());
    ASSERT_TRUE(coll_->AddDocument("oid:3", "www gopher veronica").ok());
    ASSERT_TRUE(
        coll_->AddDocument("oid:4", "cooking recipes entirely off topic")
            .ok());
  }

  std::unique_ptr<irs::IrsCollection> coll_;
};

TEST_F(FeedbackTest, ExpandsWithDiscriminativeTerms) {
  auto expanded = irs::ExpandQueryRocchio(*coll_, "www", {"oid:1", "oid:2"});
  ASSERT_TRUE(expanded.ok());
  // The shared, relevant-only terms appear in the expansion.
  EXPECT_NE(expanded->find("browser"), std::string::npos) << *expanded;
  EXPECT_NE(expanded->find("mosaic"), std::string::npos) << *expanded;
  // The original term is not duplicated as an expansion term.
  EXPECT_EQ(expanded->find("gopher"), std::string::npos);
  // Result is a valid IRS query.
  auto tree = irs::ParseIrsQuery(*expanded, coll_->analyzer());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ((*tree)->op, irs::QueryOp::kWsum);
}

TEST_F(FeedbackTest, ExpandedQueryImprovesRanking) {
  // Original query ranks oid:3 (www-only) and oid:2 similarly; after
  // feedback on oid:1, oid:2 (sharing browser+mosaic) must outrank
  // oid:3.
  auto expanded = irs::ExpandQueryRocchio(*coll_, "www", {"oid:1"});
  ASSERT_TRUE(expanded.ok());
  auto hits = coll_->Search(*expanded);
  ASSERT_TRUE(hits.ok());
  size_t pos2 = 99, pos3 = 99;
  for (size_t i = 0; i < hits->size(); ++i) {
    if ((*hits)[i].key == "oid:2") pos2 = i;
    if ((*hits)[i].key == "oid:3") pos3 = i;
  }
  EXPECT_LT(pos2, pos3);
}

TEST_F(FeedbackTest, LimitsExpansionTerms) {
  irs::FeedbackOptions opts;
  opts.expansion_terms = 1;
  auto expanded =
      irs::ExpandQueryRocchio(*coll_, "www", {"oid:1", "oid:2"}, opts);
  ASSERT_TRUE(expanded.ok());
  // Exactly one expansion term: #wsum(1 www 0.5 X).
  size_t count = 0;
  for (size_t pos = expanded->find("0.5"); pos != std::string::npos;
       pos = expanded->find("0.5", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(FeedbackTest, ErrorsOnMissingDocs) {
  EXPECT_FALSE(irs::ExpandQueryRocchio(*coll_, "www", {"oid:99"}).ok());
  EXPECT_FALSE(irs::ExpandQueryRocchio(*coll_, "www", {}).ok());
}

// --- Collection choice (Section 4.5.1) --------------------------------

TEST(CollectionChoiceTest, DefaultCollection) {
  auto sys = MakeFigure4System();
  // 1-arg getIRSValue without configuration fails.
  auto paras = sys->db->Extent("PARA");
  auto fail = sys->db->Invoke(paras[0], "getIRSValue", {oodb::Value("www")});
  EXPECT_FALSE(fail.ok());

  // Alternative (1): hard-wired default.
  ASSERT_TRUE(sys->coupling->SetDefaultCollection("paras").ok());
  auto v = sys->db->Invoke(paras[0], "getIRSValue", {oodb::Value("www")});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  // Same value as the explicit 2-arg form.
  auto v2 = sys->db->Invoke(
      paras[0], "getIRSValue", {oodb::Value("paras"), oodb::Value("www")});
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(v->as_real(), v2->as_real());

  EXPECT_FALSE(sys->coupling->SetDefaultCollection("nope").ok());
}

TEST(CollectionChoiceTest, PerClassChoiceWinsOverDefault) {
  auto sys = MakeFigure4System();
  auto docs = sys->coupling->CreateCollection("docs", "inquery");
  ASSERT_TRUE(docs.ok());
  ASSERT_TRUE((*docs)
                  ->IndexObjects("ACCESS d FROM d IN MMFDOC",
                                 kTextModeSubtree)
                  .ok());
  ASSERT_TRUE(sys->coupling->SetDefaultCollection("paras").ok());
  // Alternative (3): MMFDOC objects choose the document collection.
  ASSERT_TRUE(sys->coupling->SetClassCollection("MMFDOC", "docs").ok());

  auto chosen_doc = sys->coupling->ChooseCollectionFor(sys->roots[0]);
  ASSERT_TRUE(chosen_doc.ok());
  EXPECT_EQ((*chosen_doc)->irs_collection_name(), "docs");
  auto paras = sys->db->Extent("PARA");
  auto chosen_para = sys->coupling->ChooseCollectionFor(paras[0]);
  ASSERT_TRUE(chosen_para.ok());
  EXPECT_EQ((*chosen_para)->irs_collection_name(), "paras");

  // 1-arg getIRSValue on a document answers *directly* from the docs
  // collection (no derivation).
  auto v = sys->db->Invoke(sys->roots[1], "getIRSValue",
                           {oodb::Value("www")});
  ASSERT_TRUE(v.ok());
  EXPECT_GT(v->as_real(), 0.4);
  EXPECT_EQ((*docs)->stats().derive_calls, 0u);
}

TEST(CollectionChoiceTest, ClassMappingInheritedAlongIsA) {
  auto sys = MakeFigure4System();
  ASSERT_TRUE(sys->coupling->SetClassCollection("IRSObject", "paras").ok());
  // PARA inherits the IRSObject mapping.
  auto paras = sys->db->Extent("PARA");
  auto chosen = sys->coupling->ChooseCollectionFor(paras[0]);
  ASSERT_TRUE(chosen.ok());
  EXPECT_EQ((*chosen)->irs_collection_name(), "paras");
  // Unknown class in mapping calls fail.
  EXPECT_FALSE(sys->coupling->SetClassCollection("NOPE", "paras").ok());
  EXPECT_FALSE(sys->coupling->SetClassCollection("PARA", "nope").ok());
}

// --- Collection restoration across restarts ----------------------------

TEST(RestoreCollectionsTest, ReattachesPersistedCollections) {
  std::string dir = testing::TempDir() + "/sdms_restore_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  size_t represented = 0;
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    ASSERT_TRUE(db.ok());
    irs::IrsEngine engine;
    Coupling coupling(db->get(), &engine);
    ASSERT_TRUE(coupling.Initialize().ok());
    auto dtd = sgml::LoadMmfDtd();
    ASSERT_TRUE(dtd.ok());
    ASSERT_TRUE(coupling.RegisterDtdClasses(*dtd).ok());
    sgml::CorpusOptions opts;
    opts.num_docs = 8;
    for (const auto& doc : sgml::CorpusGenerator(opts).Generate().documents) {
      ASSERT_TRUE(coupling.StoreDocument(doc).ok());
    }
    auto coll = coupling.CreateCollection("lib", "inquery");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)
                    ->IndexObjects("ACCESS p FROM p IN PARA",
                                   kTextModeSubtree)
                    .ok());
    represented = (*coll)->represented_count();
    ASSERT_TRUE((*coll)->SetDerivationScheme("subquery").ok());
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    ASSERT_TRUE(engine.SaveTo(dir + "/irs").ok());
  }
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    ASSERT_TRUE(db.ok());
    irs::IrsEngine engine;
    ASSERT_TRUE(engine.LoadFrom(dir + "/irs").ok());
    Coupling coupling(db->get(), &engine);
    ASSERT_TRUE(coupling.Initialize().ok());
    auto dtd = sgml::LoadMmfDtd();
    ASSERT_TRUE(dtd.ok());
    ASSERT_TRUE(coupling.RegisterDtdClasses(*dtd).ok());

    auto restored = coupling.RestoreCollections();
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(*restored, 1u);
    auto coll = coupling.GetCollectionByName("lib");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ((*coll)->represented_count(), represented);
    EXPECT_EQ((*coll)->spec_query(), "ACCESS p FROM p IN PARA");
    EXPECT_EQ((*coll)->text_mode(), kTextModeSubtree);
    // The restored collection is fully operational: query + update
    // propagation against the recovered objects.
    auto hits = (*coll)->GetIrsResult("www");
    ASSERT_TRUE(hits.ok());
    Oid para = *(*coll)->represented().begin();
    ASSERT_TRUE(db.value()
                    ->SetAttribute(para, "TEXT",
                                   oodb::Value("restored zebra paragraph"))
                    .ok());
    auto zebra = (*coll)->GetIrsResult("zebra");
    ASSERT_TRUE(zebra.ok());
    EXPECT_EQ((*zebra)->count(para), 1u);
    // Idempotent: nothing further to restore.
    EXPECT_EQ(*coupling.RestoreCollections(), 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(RestoreCollectionsTest, IrsKeyFarAboveOidWatermarkIsCorruption) {
  // The represented set is indexed by OID, so a restored IRS document
  // naming OID 2^62 must fail the restore instead of sizing the set.
  std::string dir = testing::TempDir() + "/sdms_restore_far_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto define_schema = [](Coupling& coupling) {
    ASSERT_TRUE(coupling.Initialize().ok());
    auto dtd = sgml::LoadMmfDtd();
    ASSERT_TRUE(dtd.ok());
    ASSERT_TRUE(coupling.RegisterDtdClasses(*dtd).ok());
  };
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    ASSERT_TRUE(db.ok());
    irs::IrsEngine engine;
    Coupling coupling(db->get(), &engine);
    define_schema(coupling);
    sgml::CorpusOptions opts;
    opts.num_docs = 2;
    for (const auto& doc : sgml::CorpusGenerator(opts).Generate().documents) {
      ASSERT_TRUE(coupling.StoreDocument(doc).ok());
    }
    auto coll = coupling.CreateCollection("lib", "inquery");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE(
        (*coll)->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree).ok());
    auto irs_coll = engine.GetCollection("lib");
    ASSERT_TRUE(irs_coll.ok());
    ASSERT_TRUE((*irs_coll)
                    ->AddDocument(Oid(uint64_t{1} << 62).ToString(),
                                  "a document from nowhere")
                    .ok());
    ASSERT_TRUE(db.value()->Checkpoint().ok());
    ASSERT_TRUE(engine.SaveTo(dir + "/irs").ok());
  }
  {
    auto db = oodb::Database::Open({dir + "/db", false});
    ASSERT_TRUE(db.ok());
    irs::IrsEngine engine;
    ASSERT_TRUE(engine.LoadFrom(dir + "/irs").ok());
    Coupling coupling(db->get(), &engine);
    define_schema(coupling);
    auto restored = coupling.RestoreCollections();
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kCorruption)
        << restored.status().ToString();
  }
  std::filesystem::remove_all(dir);
}

// --- Range-index optimization -----------------------------------------

TEST(RangeIndexTest, RangePredicateUsesIndex) {
  auto sys = MakeCoupledSystem();
  sgml::CorpusOptions copts;
  copts.num_docs = 50;
  copts.seed = 8;
  testutil::StoreCorpus(*sys, sgml::CorpusGenerator(copts).Generate());
  ASSERT_TRUE(sys->db->CreateIndex("MMFDOC", "YEAR").ok());

  auto& engine = sys->coupling->query_engine();
  auto r = engine.Run(
      "ACCESS d FROM d IN MMFDOC WHERE d.YEAR >= 1995");
  ASSERT_TRUE(r.ok());
  size_t with_index_scanned = engine.last_stats().bindings_scanned;
  EXPECT_EQ(engine.last_stats().index_lookups, 1u);
  EXPECT_EQ(with_index_scanned, r->rows.size());  // Only matches scanned.

  engine.options().use_indexes = false;
  auto r2 = engine.Run(
      "ACCESS d FROM d IN MMFDOC WHERE d.YEAR >= 1995");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->rows.size(), r->rows.size());
  EXPECT_EQ(engine.last_stats().bindings_scanned, 50u);
  engine.options().use_indexes = true;

  // Mirrored literal-first form also recognized.
  auto r3 = engine.Run(
      "ACCESS d FROM d IN MMFDOC WHERE 1995 <= d.YEAR");
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(engine.last_stats().index_lookups, 1u);
  EXPECT_EQ(r3->rows.size(), r->rows.size());

  // Two range conjuncts intersect on the index.
  auto r4 = engine.Run(
      "ACCESS d FROM d IN MMFDOC WHERE d.YEAR >= 1993 AND d.YEAR < 1995");
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(engine.last_stats().index_lookups, 2u);
  for (const auto& row : r4->rows) {
    auto year = sys->db->GetAttribute(row[0].as_oid(), "YEAR");
    ASSERT_TRUE(year.ok());
    EXPECT_GE(year->as_int(), 1993);
    EXPECT_LT(year->as_int(), 1995);
  }
}

TEST(RangeIndexTest, DatabaseIndexRangeApi) {
  auto db = oodb::Database::Open({});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(oodb::RegisterBuiltins(**db).ok());
  oodb::ClassDef cls;
  cls.name = "ITEM";
  cls.super = oodb::kObjectClass;
  cls.attributes = {{"N", oodb::ValueType::kInt, oodb::Value()}};
  ASSERT_TRUE((*db)->schema().DefineClass(std::move(cls)).ok());
  for (int i = 0; i < 20; ++i) {
    auto oid = (*db)->CreateObject("ITEM");
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE((*db)->SetAttribute(*oid, "N", oodb::Value(i)).ok());
  }
  ASSERT_TRUE((*db)->CreateIndex("ITEM", "N").ok());
  auto hits = (*db)->IndexRange("ITEM", "N", oodb::Value(5), true,
                                oodb::Value(9), false);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 4u);  // 5,6,7,8
  EXPECT_FALSE(
      (*db)->IndexRange("ITEM", "M", std::nullopt, true, std::nullopt, true)
          .ok());
}

}  // namespace
}  // namespace sdms::coupling

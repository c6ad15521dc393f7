#include "coupling/coupling.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "coupling_test_util.h"
#include "irs/collection.h"
#include "oodb/builtins.h"

namespace sdms::coupling {
namespace {

using testutil::CoupledSystem;
using testutil::MakeCoupledSystem;
using testutil::MakeFigure4System;

TEST(CouplingTest, InitializeDefinesSchema) {
  auto sys = MakeCoupledSystem();
  EXPECT_TRUE(sys->db->schema().HasClass("Object"));
  EXPECT_TRUE(sys->db->schema().HasClass("IRSObject"));
  EXPECT_TRUE(sys->db->schema().HasClass("COLLECTION"));
  EXPECT_TRUE(sys->db->schema().HasClass("MMFDOC"));
  EXPECT_TRUE(sys->db->schema().HasClass("PARA"));
  EXPECT_TRUE(sys->db->schema().IsSubclassOf("PARA", "IRSObject"));
  // Double-Initialize rejected.
  EXPECT_FALSE(sys->coupling->Initialize().ok());
}

TEST(CouplingTest, StoreDocumentFragmentsIntoObjects) {
  auto sys = MakeCoupledSystem();
  auto doc = sgml::ParseSgml(
      "<MMFDOC YEAR=\"1994\"><DOCTITLE>Telnet</DOCTITLE>"
      "<PARA>Telnet is a protocol for remote access</PARA>"
      "<PARA>Telnet enables sessions</PARA></MMFDOC>");
  ASSERT_TRUE(doc.ok());
  auto root = sys->coupling->StoreDocument(*doc);
  ASSERT_TRUE(root.ok());

  // One object per element.
  EXPECT_EQ(sys->db->Extent("MMFDOC").size(), 1u);
  EXPECT_EQ(sys->db->Extent("PARA").size(), 2u);
  EXPECT_EQ(sys->db->Extent("DOCTITLE").size(), 1u);

  // Typed SGML attribute.
  auto year = sys->db->GetAttribute(*root, "YEAR");
  ASSERT_TRUE(year.ok());
  EXPECT_TRUE(year->Equals(oodb::Value(1994)));

  // Structure navigation.
  auto children = sys->coupling->ChildrenOf(*root);
  ASSERT_TRUE(children.ok());
  ASSERT_EQ(children->size(), 3u);
  auto parent = sys->coupling->ParentOf((*children)[0]);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(*parent, *root);
  EXPECT_EQ(*sys->coupling->ParentOf(*root), kNullOid);

  // Subtree text concatenates leaf text in document order.
  auto text = sys->coupling->SubtreeText(*root);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text,
            "Telnet Telnet is a protocol for remote access "
            "Telnet enables sessions");

  // Siblings.
  auto next = sys->coupling->NextSiblingOf((*children)[0]);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, (*children)[1]);
  EXPECT_EQ(*sys->coupling->NextSiblingOf((*children)[2]), kNullOid);

  // getContaining.
  auto containing = sys->coupling->ContainingOf((*children)[1], "MMFDOC");
  ASSERT_TRUE(containing.ok());
  EXPECT_EQ(*containing, *root);
}

TEST(CouplingTest, StoreDocumentRequiresClasses) {
  auto sys = MakeCoupledSystem();
  auto doc = sgml::ParseSgml("<UNKNOWN>x</UNKNOWN>");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(sys->coupling->StoreDocument(*doc).ok());
  // Atomicity: the failed store left nothing behind.
  EXPECT_EQ(sys->db->store().size(), 0u);
}

TEST(CouplingTest, CreateCollectionMakesDbObjectAndIrsCollection) {
  auto sys = MakeCoupledSystem();
  auto coll = sys->coupling->CreateCollection("paras", "inquery");
  ASSERT_TRUE(coll.ok());
  EXPECT_TRUE((*coll)->oid().valid());
  EXPECT_TRUE(sys->irs_engine->GetCollection("paras").ok());
  EXPECT_EQ(sys->db->Extent("COLLECTION").size(), 1u);
  // Duplicate rejected.
  EXPECT_FALSE(sys->coupling->CreateCollection("paras", "inquery").ok());
  // Lookup by OID and name agree.
  EXPECT_EQ(*sys->coupling->GetCollection((*coll)->oid()), *coll);
  EXPECT_EQ(*sys->coupling->GetCollectionByName("paras"), *coll);
}

TEST(CouplingTest, IndexObjectsRepresentsSpecResult) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  EXPECT_EQ(coll->represented_count(), 11u);
  auto irs_coll = sys->irs_engine->GetCollection("paras");
  ASSERT_TRUE(irs_coll.ok());
  EXPECT_EQ((*irs_coll)->index().doc_count(), 11u);
  // Every represented object is a PARA.
  for (Oid oid : coll->represented()) {
    EXPECT_EQ(*sys->db->ClassOf(oid), "PARA");
  }
}

/// The OIDs `name`'s IRS index holds live, in OID order: what the
/// represented set held as a std::set<Oid>.
std::vector<Oid> IndexedOids(CoupledSystem& sys, const std::string& name) {
  std::set<Oid> keys;
  auto irs_coll = sys.irs_engine->GetCollection(name);
  EXPECT_TRUE(irs_coll.ok());
  (*irs_coll)->ForEachDoc([&](size_t, irs::DocId, const irs::DocInfo& info) {
    keys.insert(*ParseOidKey(info.key));
  });
  return std::vector<Oid>(keys.begin(), keys.end());
}

void ExpectRepresentedMatchesIndex(CoupledSystem& sys, const std::string& name) {
  Collection* coll = *sys.coupling->GetCollectionByName(name);
  std::vector<Oid> want = IndexedOids(sys, name);
  std::vector<Oid> got(coll->represented().begin(), coll->represented().end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(coll->represented_count(), want.size());
  for (Oid oid : want) EXPECT_TRUE(coll->Represents(oid)) << oid.ToString();
  EXPECT_FALSE(coll->Represents(kNullOid));
  EXPECT_FALSE(coll->Represents(Oid(sys.db->store().next_oid() + 1000)));
  EXPECT_FALSE(coll->Represents(Oid(~uint64_t{0})));
}

TEST(CouplingTest, RepresentedIteratesIndexedOidsInOrder) {
  auto sys = MakeFigure4System();
  ExpectRepresentedMatchesIndex(*sys, "paras");
  // A second collection over a generated corpus, restricted by a
  // predicate so its OIDs are sparse.
  sgml::CorpusOptions opts;
  opts.num_docs = 10;
  opts.seed = 5;
  testutil::StoreCorpus(*sys, sgml::CorpusGenerator(opts).Generate());
  auto coll = sys->coupling->CreateCollection("long_paras", "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)
                  ->IndexObjects(
                      "ACCESS p FROM p IN PARA WHERE p -> length() > 40",
                      kTextModeSubtree)
                  .ok());
  ExpectRepresentedMatchesIndex(*sys, "long_paras");
  // Deleting represented objects leaves holes; the set follows the
  // index through propagation.
  std::vector<Oid> before(
      (*coll)->represented().begin(), (*coll)->represented().end());
  ASSERT_GE(before.size(), 3u);
  ASSERT_TRUE(sys->db->DeleteObject(before.front()).ok());
  ASSERT_TRUE(sys->db->DeleteObject(before[before.size() / 2]).ok());
  ASSERT_TRUE((*coll)->PropagateUpdates().ok());
  EXPECT_EQ((*coll)->represented_count(), before.size() - 2);
  EXPECT_FALSE((*coll)->Represents(before.front()));
  ExpectRepresentedMatchesIndex(*sys, "long_paras");
  ASSERT_TRUE((*coll)->Repair().ok());
  ExpectRepresentedMatchesIndex(*sys, "long_paras");
}

TEST(CouplingTest, FindIrsValueForRepresentedObject) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  // P1 (first paragraph of M1) is relevant to www.
  auto paras = sys->coupling->ChildrenOf(sys->roots[0]);
  ASSERT_TRUE(paras.ok());
  // Children: DOCTITLE, PARA, PARA, PARA.
  Oid p1 = (*paras)[1];
  auto v = coll->FindIrsValue("www", p1);
  ASSERT_TRUE(v.ok());
  EXPECT_GT(*v, 0.4);  // Above default belief: real evidence.
  // An irrelevant paragraph scores the default (not retrieved).
  Oid p2 = (*paras)[2];
  auto v2 = coll->FindIrsValue("www", p2);
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(*v2, 0.4);
  EXPECT_GT(*v, *v2);
}

TEST(CouplingTest, FindIrsValueDerivesForNonRepresented) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  // MMFDOC objects are not represented: value must be derived.
  auto v = coll->FindIrsValue("www", sys->roots[0]);
  ASSERT_TRUE(v.ok());
  EXPECT_GT(*v, 0.4);  // M1 contains a www paragraph.
  EXPECT_GT(coll->stats().derive_calls, 0u);
  // The derived value was inserted into the buffer (Figure 3): a
  // second call is served without further derivation.
  uint64_t derives = coll->stats().derive_calls;
  auto v2 = coll->FindIrsValue("www", sys->roots[0]);
  ASSERT_TRUE(v2.ok());
  EXPECT_DOUBLE_EQ(*v, *v2);
  EXPECT_EQ(coll->stats().derive_calls, derives);
  // The derived value is kept beside the IRS result, which still holds
  // only what the IRS returned.
  auto hits = coll->GetIrsResult("www");
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE((*hits)->empty());
  EXPECT_EQ((*hits)->count(sys->roots[0]), 0u);
}

TEST(CouplingTest, BufferServesRepeatedQueries) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  EXPECT_EQ(coll->stats().irs_queries, 1u);
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  EXPECT_EQ(coll->stats().irs_queries, 1u);  // Buffered.
  EXPECT_EQ(coll->stats().buffer_hits, 2u);
  // A different query is a miss.
  ASSERT_TRUE(coll->GetIrsResult("nii").ok());
  EXPECT_EQ(coll->stats().irs_queries, 2u);
}

TEST(CouplingTest, DisabledBufferCallsIrsEveryTime) {
  CouplingOptions options;
  options.disable_buffering = true;
  auto sys = MakeFigure4System(options);
  auto coll = *sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  ASSERT_TRUE(coll->GetIrsResult("www").ok());
  EXPECT_EQ(coll->stats().irs_queries, 2u);
}

TEST(CouplingTest, GetTextModes) {
  auto sys = MakeFigure4System();
  Oid root = sys->roots[0];
  auto subtree = sys->coupling->GetText(root, kTextModeSubtree);
  ASSERT_TRUE(subtree.ok());
  EXPECT_NE(subtree->find("P1"), std::string::npos);
  auto direct = sys->coupling->GetText(root, kTextModeDirect);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(direct->empty());  // MMFDOC has no direct text.
  auto titles = sys->coupling->GetText(root, kTextModeTitles);
  ASSERT_TRUE(titles.ok());
  EXPECT_NE(titles->find("Figure-4 document M1"), std::string::npos);
  EXPECT_EQ(titles->find("P1"), std::string::npos);  // Body not included.
  EXPECT_FALSE(sys->coupling->GetText(root, 99).ok());
}

TEST(CouplingTest, CustomTextProvider) {
  auto sys = MakeFigure4System();
  sys->coupling->RegisterTextProvider(
      7, [](oodb::Database&, Oid) -> StatusOr<std::string> {
        return std::string("constant text");
      });
  auto text = sys->coupling->GetText(sys->roots[0], 7);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "constant text");
}

TEST(CouplingTest, VqlGetIrsValueMethod) {
  auto sys = MakeFigure4System();
  // Paper Section 4.4, first query shape.
  auto result = sys->coupling->query_engine().Run(
      "ACCESS p, p -> length() FROM p IN PARA "
      "WHERE p -> getIRSValue('paras', 'www') > 0.5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // P1, P4, P7, P9, P10 carry www (5 paragraphs).
  EXPECT_EQ(result->rows.size(), 5u);
  for (const auto& row : result->rows) {
    EXPECT_TRUE(row[0].is_oid());
    EXPECT_TRUE(row[1].is_int());
    EXPECT_GT(row[1].as_int(), 0);
  }
}

TEST(CouplingTest, SemanticOptimizerWarmsBuffer) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(sys->coupling->query_engine()
                  .Run("ACCESS p FROM p IN PARA "
                       "WHERE p -> getIRSValue('paras', 'www') > 0.5")
                  .ok());
  // One IRS call despite 11 candidate paragraphs: the prepare hook
  // batched it, per-object lookups hit the buffer.
  EXPECT_EQ(coll->stats().irs_queries, 1u);
  EXPECT_GE(coll->stats().buffer_hits, 10u);
}

TEST(CouplingTest, VqlCollectionMethods) {
  auto sys = MakeFigure4System();
  auto coll = *sys->coupling->GetCollectionByName("paras");
  // getIRSResult returns a DICT keyed by OID strings.
  auto dict = sys->db->Invoke(coll->oid(), "getIRSResult",
                              {oodb::Value("www")});
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  ASSERT_TRUE(dict->is_dict());
  EXPECT_EQ(dict->as_dict().size(), 5u);
  // setDerivationScheme via method.
  auto ok = sys->db->Invoke(coll->oid(), "setDerivationScheme",
                            {oodb::Value("subquery")});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(coll->derivation_scheme().name(), "subquery");
}

TEST(CouplingTest, OverlappingCollections) {
  // The paper allows arbitrary, potentially overlapping collections:
  // a paragraph collection and a document collection share objects.
  auto sys = MakeFigure4System();
  auto docs = sys->coupling->CreateCollection("docs", "inquery");
  ASSERT_TRUE(docs.ok());
  ASSERT_TRUE((*docs)
                  ->IndexObjects("ACCESS d FROM d IN MMFDOC",
                                 kTextModeSubtree)
                  .ok());
  EXPECT_EQ((*docs)->represented_count(), 4u);
  auto paras = *sys->coupling->GetCollectionByName("paras");
  EXPECT_EQ(paras->represented_count(), 11u);
  // A document-level query on the docs collection answers directly.
  auto v = (*docs)->FindIrsValue("www", sys->roots[1]);
  ASSERT_TRUE(v.ok());
  EXPECT_GT(*v, 0.4);
  EXPECT_EQ((*docs)->stats().derive_calls, 0u);
}

TEST(CouplingTest, FileExchangeModeWorks) {
  CouplingOptions options;
  options.file_exchange = true;
  options.exchange_dir = testing::TempDir();
  auto sys = MakeFigure4System(options);
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto result = coll->GetIrsResult("www");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->size(), 5u);
  EXPECT_GT(coll->stats().files_exchanged, 0u);
  EXPECT_GT(coll->stats().bytes_exchanged, 0u);
}

TEST(CouplingTest, DropCollection) {
  auto sys = MakeFigure4System();
  ASSERT_TRUE(sys->coupling->DropCollection("paras").ok());
  EXPECT_FALSE(sys->coupling->GetCollectionByName("paras").ok());
  EXPECT_FALSE(sys->irs_engine->GetCollection("paras").ok());
  EXPECT_TRUE(sys->db->Extent("COLLECTION").empty());
  EXPECT_FALSE(sys->coupling->DropCollection("paras").ok());
}

TEST(CouplingTest, SpecQueryWithPredicate) {
  auto sys = MakeCoupledSystem();
  sgml::CorpusOptions opts;
  opts.num_docs = 10;
  opts.seed = 5;
  testutil::StoreCorpus(*sys, sgml::CorpusGenerator(opts).Generate());
  auto coll = sys->coupling->CreateCollection("long_paras", "inquery");
  ASSERT_TRUE(coll.ok());
  // Only paragraphs with more than 40 tokens.
  ASSERT_TRUE((*coll)
                  ->IndexObjects(
                      "ACCESS p FROM p IN PARA WHERE p -> length() > 40",
                      kTextModeSubtree)
                  .ok());
  EXPECT_GT((*coll)->represented_count(), 0u);
  EXPECT_LT((*coll)->represented_count(), sys->db->Extent("PARA").size());
  for (Oid oid : (*coll)->represented()) {
    auto len = sys->db->Invoke(oid, "length", {});
    ASSERT_TRUE(len.ok());
    EXPECT_GT(len->as_int(), 40);
  }
}

}  // namespace
}  // namespace sdms::coupling

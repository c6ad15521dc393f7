#include "coupling/hypertext.h"

#include <gtest/gtest.h>

#include <map>

#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

using testutil::MakeCoupledSystem;

class HypertextTest : public testing::Test {
 protected:
  void SetUp() override {
    sys_ = MakeCoupledSystem();
    ASSERT_TRUE(RegisterHypertext(*sys_->coupling).ok());
    // Two tiny documents; doc B's paragraph implies doc A's paragraph.
    auto doc_a = sgml::ParseSgml(
        "<MMFDOC DOCID=\"A\"><DOCTITLE>target</DOCTITLE>"
        "<PARA>plain destination node</PARA></MMFDOC>");
    auto doc_b = sgml::ParseSgml(
        "<MMFDOC DOCID=\"B\"><DOCTITLE>source</DOCTITLE>"
        "<PARA>hypermedia discussion implying the destination</PARA>"
        "</MMFDOC>");
    ASSERT_TRUE(doc_a.ok());
    ASSERT_TRUE(doc_b.ok());
    root_a_ = *sys_->coupling->StoreDocument(*doc_a);
    root_b_ = *sys_->coupling->StoreDocument(*doc_b);
    para_a_ = (*sys_->coupling->ChildrenOf(root_a_))[1];
    para_b_ = (*sys_->coupling->ChildrenOf(root_b_))[1];
  }

  std::unique_ptr<testutil::CoupledSystem> sys_;
  Oid root_a_, root_b_, para_a_, para_b_;
};

TEST_F(HypertextTest, CreateAndNavigateLinks) {
  auto link = CreateLink(*sys_->coupling, para_b_, para_a_, "implies");
  ASSERT_TRUE(link.ok());
  auto sources = LinkSources(*sys_->coupling, para_a_, "implies");
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources->size(), 1u);
  EXPECT_EQ((*sources)[0], para_b_);
  auto targets = LinkTargets(*sys_->coupling, para_b_, "implies");
  ASSERT_TRUE(targets.ok());
  ASSERT_EQ(targets->size(), 1u);
  EXPECT_EQ((*targets)[0], para_a_);
  // Typed: a different type does not show.
  EXPECT_TRUE(LinkSources(*sys_->coupling, para_a_, "refers")->empty());
}

TEST_F(HypertextTest, LinksToMethodInVql) {
  ASSERT_TRUE(CreateLink(*sys_->coupling, para_b_, para_a_, "implies").ok());
  auto v = sys_->db->Invoke(para_a_, "linksTo", {});
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_list());
  ASSERT_EQ(v->as_list().size(), 1u);
  EXPECT_EQ(v->as_list()[0].as_oid(), para_b_);
}

TEST_F(HypertextTest, TextModeWithLinksIncludesImpliedSources) {
  ASSERT_TRUE(CreateLink(*sys_->coupling, para_b_, para_a_, "implies").ok());
  auto text = sys_->coupling->GetText(para_a_, kTextModeWithLinks);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("plain destination node"), std::string::npos);
  EXPECT_NE(text->find("hypermedia discussion"), std::string::npos);
  // Without the link mode, only the own text shows.
  auto own = sys_->coupling->GetText(para_a_, kTextModeSubtree);
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own->find("hypermedia"), std::string::npos);
}

TEST_F(HypertextTest, LinkTextModeMakesTargetRetrievable) {
  ASSERT_TRUE(CreateLink(*sys_->coupling, para_b_, para_a_, "implies").ok());
  auto coll = sys_->coupling->CreateCollection("linked", "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)
                  ->IndexObjects("ACCESS p FROM p IN PARA",
                                 kTextModeWithLinks)
                  .ok());
  // "hypermedia" appears only in B's text, but A's IRS document now
  // contains it through the implies-link.
  auto result = (*coll)->GetIrsResult("hypermedia");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->count(para_a_), 1u);
  EXPECT_EQ((*result)->count(para_b_), 1u);
}

TEST_F(HypertextTest, LinkDerivationScheme) {
  // para_b implies *document A as a whole* (node-level link).
  ASSERT_TRUE(CreateLink(*sys_->coupling, para_b_, root_a_, "implies").ok());
  auto coll = sys_->coupling->CreateCollection("paras", "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(
      (*coll)->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree).ok());
  (*coll)->SetDerivationScheme(
      MakeLinkDerivationScheme(sys_->coupling.get(), "implies", 0.9));

  auto direct = (*coll)->FindIrsValue("hypermedia", para_b_);
  ASSERT_TRUE(direct.ok());
  EXPECT_GT(*direct, 0.4);

  // Derive for root A: its structural children carry no evidence for
  // "hypermedia", but the implies-link from para_b_ does.
  auto derived = (*coll)->FindIrsValue("hypermedia", root_a_);
  ASSERT_TRUE(derived.ok());
  EXPECT_GT(*derived, 0.4);
  EXPECT_NEAR(*derived, 0.9 * *direct, 1e-9);

  // Ablation: with the plain max scheme the link is invisible and the
  // derived value collapses to the default belief.
  ASSERT_TRUE((*coll)->SetDerivationScheme("max").ok());
  (*coll)->buffer().Clear();
  auto without_links = (*coll)->FindIrsValue("hypermedia", root_a_);
  ASSERT_TRUE(without_links.ok());
  EXPECT_DOUBLE_EQ(*without_links, 0.4);
}

TEST_F(HypertextTest, MutualImpliesLinksTakeTheNullScoreOnReentry) {
  // Documents A and B imply each other, so deriving either one re-enters
  // the other. The re-entered derivation contributes the query's null
  // score instead of recursing, in per-binding and bound evaluation
  // alike.
  ASSERT_TRUE(CreateLink(*sys_->coupling, root_a_, root_b_, "implies").ok());
  ASSERT_TRUE(CreateLink(*sys_->coupling, root_b_, root_a_, "implies").ok());
  auto coll = sys_->coupling->CreateCollection("paras", "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(
      (*coll)->IndexObjects("ACCESS p FROM p IN PARA", kTextModeSubtree).ok());
  (*coll)->SetDerivationScheme(
      MakeLinkDerivationScheme(sys_->coupling.get(), "implies", 0.9));
  // "plain" occurs in A's paragraph only. Had B seen A's derived value
  // through the link, B would score above the null score.
  auto null_score = (*coll)->NullScore("plain");
  ASSERT_TRUE(null_score.ok());
  auto direct = (*coll)->FindIrsValue("plain", para_a_);
  ASSERT_TRUE(direct.ok());
  ASSERT_GT(0.9 * *direct, *null_score);
  ASSERT_TRUE(root_a_ < root_b_);

  // Per binding, in OID order: deriving A derives B, which re-enters A
  // and sees A's null score; B's value is cached at the null score.
  std::map<Oid, double> per_binding;
  for (Oid d : {root_a_, root_b_}) {
    auto v = (*coll)->FindIrsValue("plain", d);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    per_binding[d] = *v;
  }
  EXPECT_EQ(per_binding[root_a_], *direct);
  EXPECT_EQ(per_binding[root_b_], *null_score);

  // Bound: the statement's pinned call derives the same values.
  (*coll)->buffer().Clear();
  const std::string call = "d -> getIRSValue('paras', 'plain')";
  auto r = sys_->coupling->query_engine().Run(
      "ACCESS d, " + call + " FROM d IN MMFDOC WHERE " + call + " > 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  for (const auto& row : r->rows) {
    EXPECT_EQ(row[1].as_real(), per_binding.at(row[0].as_oid()))
        << row[0].as_oid().ToString();
  }
}

TEST_F(HypertextTest, MaterializeHyperlinksFromMarkup) {
  // A document whose markup declares a hyperlink to document A.
  auto doc = sgml::ParseSgml(
      "<MMFDOC DOCID=\"C\"><DOCTITLE>Citing doc</DOCTITLE>"
      "<PARA>as shown in "
      "<HYPERLINK TARGET=\"A\" LINKTYPE=\"implies\">the target"
      "</HYPERLINK> we conclude</PARA></MMFDOC>");
  ASSERT_TRUE(doc.ok());
  auto root_c = sys_->coupling->StoreDocument(*doc);
  ASSERT_TRUE(root_c.ok());

  auto created = MaterializeHyperlinks(*sys_->coupling, *root_c);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(*created, 1u);

  // The link runs from the containing paragraph of doc C to root A.
  auto sources = LinkSources(*sys_->coupling, root_a_, "implies");
  ASSERT_TRUE(sources.ok());
  ASSERT_EQ(sources->size(), 1u);
  EXPECT_EQ(*sys_->db->ClassOf((*sources)[0]), "PARA");
  auto containing =
      sys_->coupling->ContainingOf((*sources)[0], "MMFDOC");
  ASSERT_TRUE(containing.ok());
  EXPECT_EQ(*containing, *root_c);
}

TEST_F(HypertextTest, MaterializeSkipsDanglingTargets) {
  auto doc = sgml::ParseSgml(
      "<MMFDOC DOCID=\"D\"><DOCTITLE>Dangling</DOCTITLE>"
      "<PARA><HYPERLINK TARGET=\"NOSUCH\">broken</HYPERLINK></PARA>"
      "</MMFDOC>");
  ASSERT_TRUE(doc.ok());
  auto root = sys_->coupling->StoreDocument(*doc);
  ASSERT_TRUE(root.ok());
  auto created = MaterializeHyperlinks(*sys_->coupling, *root);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, 0u);
}

TEST_F(HypertextTest, FindDocumentById) {
  auto found = FindDocumentById(*sys_->coupling, "A");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, root_a_);
  EXPECT_FALSE(FindDocumentById(*sys_->coupling, "ZZZ").ok());
  // With an index on DOCID the lookup takes the index path.
  ASSERT_TRUE(sys_->db->CreateIndex("MMFDOC", "DOCID").ok());
  auto indexed = FindDocumentById(*sys_->coupling, "B");
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(*indexed, root_b_);
}

TEST_F(HypertextTest, LinkIndexesUsed) {
  // The LINK class got B-tree indexes on SOURCE and TARGET.
  EXPECT_TRUE(sys_->db->HasIndex(kLinkClass, "TARGET"));
  EXPECT_TRUE(sys_->db->HasIndex(kLinkClass, "SOURCE"));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CreateLink(*sys_->coupling, para_b_, para_a_, "implies").ok());
  }
  auto sources = LinkSources(*sys_->coupling, para_a_, "implies");
  ASSERT_TRUE(sources.ok());
  EXPECT_EQ(sources->size(), 1u);  // Deduplicated.
}

}  // namespace
}  // namespace sdms::coupling

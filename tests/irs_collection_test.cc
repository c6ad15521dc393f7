#include "irs/collection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "common/file_util.h"
#include "common/thread_pool.h"
#include "irs/engine.h"

namespace sdms::irs {
namespace {

std::unique_ptr<IrsCollection> MakeCollection(const std::string& model =
                                                  "inquery") {
  auto m = MakeModel(model);
  EXPECT_TRUE(m.ok());
  return std::make_unique<IrsCollection>("test", AnalyzerOptions{},
                                         std::move(*m));
}

TEST(IrsCollectionTest, AddSearchRemove) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("oid:1", "telnet is a protocol").ok());
  ASSERT_TRUE(coll->AddDocument("oid:2", "www is the web").ok());
  EXPECT_TRUE(coll->HasDocument("oid:1"));
  EXPECT_FALSE(coll->HasDocument("oid:3"));

  auto hits = coll->Search("telnet");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].key, "oid:1");
  EXPECT_GT((*hits)[0].score, 0.0);

  ASSERT_TRUE(coll->RemoveDocument("oid:1").ok());
  hits = coll->Search("telnet");
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(IrsCollectionTest, DuplicateKeyRejected) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("k", "one").ok());
  EXPECT_FALSE(coll->AddDocument("k", "two").ok());
}

TEST(IrsCollectionTest, UpdateReplacesText) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("k", "ancient topic").ok());
  ASSERT_TRUE(coll->UpdateDocument("k", "modern subject").ok());
  auto old_hits = coll->Search("ancient");
  ASSERT_TRUE(old_hits.ok());
  EXPECT_TRUE(old_hits->empty());
  auto new_hits = coll->Search("modern");
  ASSERT_TRUE(new_hits.ok());
  EXPECT_EQ(new_hits->size(), 1u);
}

TEST(IrsCollectionTest, RankingDescendingAndDeterministic) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("oid:1", "www www www filler filler").ok());
  ASSERT_TRUE(coll->AddDocument("oid:2", "www filler filler filler").ok());
  ASSERT_TRUE(coll->AddDocument("oid:3", "other topics entirely").ok());
  auto hits = coll->Search("www");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].key, "oid:1");
  for (size_t i = 1; i < hits->size(); ++i) {
    EXPECT_GE((*hits)[i - 1].score, (*hits)[i].score);
  }
}

TEST(IrsCollectionTest, StatsTracked) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("a", "x").ok());
  ASSERT_TRUE(coll->Search("x").ok());
  ASSERT_TRUE(coll->RemoveDocument("a").ok());
  EXPECT_EQ(coll->stats().docs_indexed, 1u);
  EXPECT_EQ(coll->stats().queries_executed, 1u);
  EXPECT_EQ(coll->stats().docs_removed, 1u);
}

TEST(IrsCollectionTest, ModelSwapKeepsIndex) {
  auto coll = MakeCollection("inquery");
  ASSERT_TRUE(coll->AddDocument("a", "www topic").ok());
  coll->set_model(*MakeModel("boolean"));
  auto hits = coll->Search("www");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].score, 1.0);  // Boolean scores are 1.
}

TEST(IrsCollectionTest, BatchAddMatchesSequentialSearch) {
  std::vector<BatchDocument> docs = {
      {"oid:1", "telnet is a remote terminal protocol"},
      {"oid:2", "www is the hypertext web protocol"},
      {"oid:3", "gopher predates the web"},
      {"oid:4", "telnet and gopher are older protocols"},
  };
  auto one_by_one = MakeCollection();
  for (const auto& d : docs) {
    ASSERT_TRUE(one_by_one->AddDocument(d.key, d.text).ok());
  }
  auto batched = MakeCollection();
  ThreadPool pool(3);
  ASSERT_TRUE(batched->AddDocumentsBatch(docs, &pool).ok());

  auto batched_blob = batched->Serialize();
  auto one_by_one_blob = one_by_one->Serialize();
  ASSERT_TRUE(batched_blob.ok() && one_by_one_blob.ok());
  EXPECT_EQ(*batched_blob, *one_by_one_blob);
  for (const char* q : {"telnet", "protocol", "#and(telnet gopher)"}) {
    auto a = one_by_one->Search(q);
    auto b = batched->Search(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].key, (*b)[i].key) << q;
      EXPECT_DOUBLE_EQ((*a)[i].score, (*b)[i].score) << q;
    }
  }
  EXPECT_EQ(batched->stats().docs_indexed, docs.size());
}

TEST(IrsCollectionTest, BatchRejectsDuplicateWithoutSideEffects) {
  auto coll = MakeCollection();
  ASSERT_TRUE(coll->AddDocument("oid:1", "existing text").ok());
  auto before = coll->Serialize();
  ASSERT_TRUE(before.ok());
  std::vector<BatchDocument> docs = {{"oid:2", "fresh"}, {"oid:1", "dup"}};
  EXPECT_FALSE(coll->AddDocumentsBatch(docs).ok());
  auto after = coll->Serialize();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST(IrsCollectionTest, TopKSearchEqualsPrefixOfFullSearch) {
  auto coll = MakeCollection();
  for (int i = 0; i < 30; ++i) {
    std::string text = "filler common words";
    for (int j = 0; j <= i % 7; ++j) text += " target";
    ASSERT_TRUE(coll->AddDocument("oid:" + std::to_string(i), text).ok());
  }
  auto full = coll->Search("target common");
  ASSERT_TRUE(full.ok());
  for (size_t k : {1u, 5u, 12u, 100u}) {
    auto top = coll->Search("target common", k);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), std::min(k, full->size())) << "k=" << k;
    for (size_t i = 0; i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].key, (*full)[i].key) << "k=" << k;
      EXPECT_DOUBLE_EQ((*top)[i].score, (*full)[i].score) << "k=" << k;
    }
  }
}

class IrsEngineTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/sdms_irs_engine_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(IrsEngineTest, CreateGetDrop) {
  IrsEngine engine;
  ASSERT_TRUE(engine.CreateCollection("paras", {}, "inquery").ok());
  EXPECT_FALSE(engine.CreateCollection("paras", {}, "inquery").ok());
  EXPECT_TRUE(engine.GetCollection("paras").ok());
  EXPECT_FALSE(engine.GetCollection("nope").ok());
  EXPECT_FALSE(engine.CreateCollection("bad", {}, "bogus-model").ok());
  ASSERT_TRUE(engine.DropCollection("paras").ok());
  EXPECT_FALSE(engine.GetCollection("paras").ok());
}

TEST_F(IrsEngineTest, SaveAndLoad) {
  {
    IrsEngine engine;
    auto coll = engine.CreateCollection("docs", {}, "bm25");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:1", "persistent content here").ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:2", "persistent other words").ok());
    ASSERT_TRUE(engine.SaveTo(dir_).ok());
  }
  // The `.idx` snapshot is the only postings file SaveTo writes.
  std::set<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    files.insert(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{"collections.manifest", "docs.idx"}));

  auto load_hits = [&]() {
    IrsEngine engine;
    EXPECT_TRUE(engine.LoadFrom(dir_).ok());
    auto coll = engine.GetCollection("docs");
    EXPECT_TRUE(coll.ok());
    if (!coll.ok()) return std::vector<SearchHit>{};
    EXPECT_EQ((*coll)->model().name(), "bm25");
    auto hits = (*coll)->Search("persistent");
    EXPECT_TRUE(hits.ok());
    return hits.ok() ? *hits : std::vector<SearchHit>{};
  };
  std::vector<SearchHit> hits = load_hits();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].key, "oid:1");

  // Files an older release kept beside the snapshot (a paged postings
  // cache and a statistics checkpoint) are ignored at load.
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/docs.postings", "SDMSPAGE stale").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/stats.sdms", "sdms_stats v1\n").ok());
  std::vector<SearchHit> again = load_hits();
  ASSERT_EQ(again.size(), hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(again[i].key, hits[i].key);
    EXPECT_EQ(again[i].score, hits[i].score);
  }
}

TEST_F(IrsEngineTest, FileExchangeRoundTrip) {
  IrsEngine engine;
  auto coll = engine.CreateCollection("c", {}, "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->AddDocument("oid:7", "exchange through files").ok());
  std::string path = testing::TempDir() + "/sdms_irs_result.txt";
  ASSERT_TRUE(engine.SearchToFile("c", "exchange", path).ok());
  auto hits = IrsEngine::ParseResultFile(path);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].key, "oid:7");
  EXPECT_GT((*hits)[0].score, 0.0);
  std::remove(path.c_str());
}

TEST_F(IrsEngineTest, ScoresSurviveFileRoundTripExactly) {
  IrsEngine engine;
  auto coll = engine.CreateCollection("c", {}, "inquery");
  ASSERT_TRUE(coll.ok());
  for (int i = 0; i < 12; ++i) {
    std::string text = "shared corpus vocabulary";
    for (int j = 0; j <= i % 5; ++j) text += " signal";
    ASSERT_TRUE(
        (*coll)->AddDocument("oid:" + std::to_string(i), text).ok());
  }
  auto direct = (*coll)->Search("signal corpus");
  ASSERT_TRUE(direct.ok());

  std::string path = testing::TempDir() + "/sdms_irs_roundtrip.txt";
  ASSERT_TRUE(engine.SearchToFile("c", "signal corpus", path).ok());
  auto parsed = IrsEngine::ParseResultFile(path);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ((*parsed)[i].key, (*direct)[i].key);
    // %.17g + ParseDouble must reproduce the double bit-for-bit; the
    // exchange-file detour must not perturb ranking-relevant values.
    EXPECT_EQ((*parsed)[i].score, (*direct)[i].score);
  }
  std::remove(path.c_str());
}

TEST_F(IrsEngineTest, ParseResultFileRejectsGarbage) {
  std::string path = testing::TempDir() + "/sdms_bad_result.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "no-tab-here\n").ok());
  EXPECT_FALSE(IrsEngine::ParseResultFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdms::irs

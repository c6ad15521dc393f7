#include "irs/index/inverted_index.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace sdms::irs {
namespace {

std::vector<std::string> Tokens(std::initializer_list<const char*> words) {
  return std::vector<std::string>(words.begin(), words.end());
}

/// Serialize() or fail the test (block decode errors cannot happen on
/// the memory-resident indexes these tests build).
std::string Ser(const InvertedIndex& index) {
  auto blob = index.Serialize();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ok() ? *blob : std::string();
}

TEST(InvertedIndexTest, AddAndLookup) {
  InvertedIndex index;
  DocId a = index.AddDocument("oid:1", Tokens({"www", "protocol", "www"}));
  DocId b = index.AddDocument("oid:2", Tokens({"nii", "protocol"}));
  EXPECT_EQ(index.doc_count(), 2u);
  EXPECT_EQ(index.total_tokens(), 5u);
  EXPECT_EQ(index.term_count(), 3u);

  ASSERT_NE(index.GetPostingsList("www"), nullptr);
  auto postings = index.GetPostingsList("www")->DecodeAll();
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ(postings->size(), 1u);
  EXPECT_EQ((*postings)[0].doc, a);
  EXPECT_EQ((*postings)[0].tf, 2u);
  ASSERT_EQ((*postings)[0].positions.size(), 2u);
  EXPECT_EQ((*postings)[0].positions[0], 0u);
  EXPECT_EQ((*postings)[0].positions[1], 2u);

  EXPECT_EQ(index.DocFreq("protocol"), 2u);
  EXPECT_EQ(index.DocFreq("missing"), 0u);
  EXPECT_EQ(*index.FindByKey("oid:2"), b);
  EXPECT_FALSE(index.FindByKey("oid:9").ok());
  EXPECT_EQ(index.CheckInvariants(), "");
}

TEST(InvertedIndexTest, AvgDocLength) {
  InvertedIndex index;
  index.AddDocument("a", Tokens({"x", "y"}));
  index.AddDocument("b", Tokens({"x", "y", "z", "w"}));
  EXPECT_DOUBLE_EQ(index.avg_doc_length(), 3.0);
}

TEST(InvertedIndexTest, RemovePrunesPostings) {
  InvertedIndex index;
  DocId a = index.AddDocument("a", Tokens({"x", "unique"}));
  index.AddDocument("b", Tokens({"x"}));
  ASSERT_TRUE(index.RemoveDocument(a).ok());
  EXPECT_EQ(index.doc_count(), 1u);
  EXPECT_EQ(index.DocFreq("x"), 1u);
  EXPECT_EQ(index.GetPostingsList("unique"), nullptr);  // Term vanished.
  EXPECT_FALSE(index.FindByKey("a").ok());
  EXPECT_FALSE(index.RemoveDocument(a).ok());  // Double remove fails.
  EXPECT_EQ(index.CheckInvariants(), "");
}

TEST(InvertedIndexTest, SerializeRoundTrip) {
  InvertedIndex index;
  index.AddDocument("oid:1", Tokens({"alpha", "beta", "alpha"}));
  index.AddDocument("oid:2", Tokens({"beta", "gamma"}));
  DocId dead = index.AddDocument("oid:3", Tokens({"delta"}));
  ASSERT_TRUE(index.RemoveDocument(dead).ok());

  std::string blob = Ser(index);
  auto restored = InvertedIndex::Deserialize(blob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->doc_count(), 2u);
  EXPECT_EQ(restored->total_tokens(), 5u);
  EXPECT_EQ(restored->DocFreq("beta"), 2u);
  EXPECT_EQ(restored->GetPostingsList("delta"), nullptr);
  EXPECT_EQ(restored->CheckInvariants(), "");
  // Keys survive.
  EXPECT_TRUE(restored->FindByKey("oid:1").ok());
  EXPECT_FALSE(restored->FindByKey("oid:3").ok());
  // Positions survive delta-coding.
  ASSERT_NE(restored->GetPostingsList("alpha"), nullptr);
  auto postings = restored->GetPostingsList("alpha")->DecodeAll();
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ((*postings)[0].positions.size(), 2u);
  EXPECT_EQ((*postings)[0].positions[1], 2u);
}

TEST(InvertedIndexTest, DeserializeGarbageFails) {
  EXPECT_FALSE(InvertedIndex::Deserialize("not an index").ok());
}

TEST(InvertedIndexTest, ApproximateSizeGrows) {
  InvertedIndex small, big;
  small.AddDocument("a", Tokens({"one", "two"}));
  for (int i = 0; i < 50; ++i) {
    big.AddDocument("doc" + std::to_string(i),
                    Tokens({"one", "two", "three", "four", "five"}));
  }
  EXPECT_GT(big.ApproximateSizeBytes(), small.ApproximateSizeBytes());
}

std::vector<DocTokens> RandomBatch(sdms::Rng& rng, size_t count) {
  const char* vocab[] = {"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"};
  std::vector<DocTokens> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    DocTokens d;
    d.key = "doc" + std::to_string(i);
    size_t n = 1 + rng.Uniform(12);
    for (size_t t = 0; t < n; ++t) d.tokens.push_back(vocab[rng.Uniform(8)]);
    batch.push_back(std::move(d));
  }
  return batch;
}

TEST(InvertedIndexBatchTest, BatchMatchesSequentialBitForBit) {
  sdms::Rng rng(99);
  std::vector<DocTokens> batch = RandomBatch(rng, 120);

  InvertedIndex sequential;
  for (const DocTokens& d : batch) sequential.AddDocument(d.key, d.tokens);

  InvertedIndex batched;
  auto ids = batched.AddDocumentsBatch(batch, /*pool=*/nullptr);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), batch.size());
  for (size_t i = 0; i < ids->size(); ++i) {
    EXPECT_EQ((*ids)[i], static_cast<DocId>(i));
  }
  EXPECT_EQ(batched.CheckInvariants(), "");
  EXPECT_EQ(Ser(batched), Ser(sequential));
}

TEST(InvertedIndexBatchTest, ParallelBatchMatchesSequentialBitForBit) {
  sdms::Rng rng(7);
  std::vector<DocTokens> batch = RandomBatch(rng, 257);

  InvertedIndex sequential;
  for (const DocTokens& d : batch) sequential.AddDocument(d.key, d.tokens);

  ThreadPool pool(4);
  InvertedIndex parallel;
  auto ids = parallel.AddDocumentsBatch(batch, &pool);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(parallel.CheckInvariants(), "");
  EXPECT_EQ(Ser(parallel), Ser(sequential));
}

TEST(InvertedIndexBatchTest, DuplicateKeyInBatchFailsWithoutSideEffects) {
  InvertedIndex index;
  index.AddDocument("pre", Tokens({"x"}));
  std::string before = Ser(index);

  std::vector<DocTokens> dup = {{"a", Tokens({"x"})}, {"a", Tokens({"y"})}};
  EXPECT_FALSE(index.AddDocumentsBatch(dup).ok());
  std::vector<DocTokens> existing = {{"b", Tokens({"x"})},
                                     {"pre", Tokens({"y"})}};
  EXPECT_FALSE(index.AddDocumentsBatch(existing).ok());

  EXPECT_EQ(Ser(index), before);
  EXPECT_EQ(index.CheckInvariants(), "");
}

TEST(InvertedIndexBatchTest, EmptyBatchIsNoOp) {
  InvertedIndex index;
  auto ids = index.AddDocumentsBatch({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
  EXPECT_EQ(index.doc_count(), 0u);
}

TEST(InvertedIndexDeleteTest, TombstoneThenCompactMatchesEager) {
  sdms::Rng rng(1234);
  std::vector<DocTokens> batch = RandomBatch(rng, 60);

  InvertedIndex eager;
  eager.set_eager_delete(true);
  InvertedIndex lazy;  // tombstone + compaction (default)
  for (const DocTokens& d : batch) {
    eager.AddDocument(d.key, d.tokens);
    lazy.AddDocument(d.key, d.tokens);
  }
  // Remove every third document from both.
  for (DocId id = 0; id < batch.size(); id += 3) {
    ASSERT_TRUE(eager.RemoveDocument(id).ok());
    ASSERT_TRUE(lazy.RemoveDocument(id).ok());
    ASSERT_EQ(eager.CheckInvariants(), "");
    ASSERT_EQ(lazy.CheckInvariants(), "");
    ASSERT_EQ(eager.doc_count(), lazy.doc_count());
  }
  EXPECT_EQ(eager.tombstone_count(), 0u);
  lazy.Compact();
  EXPECT_EQ(lazy.tombstone_count(), 0u);
  // After compaction the two deletion architectures are observationally
  // identical: same serialized form, same df, same postings.
  EXPECT_EQ(Ser(lazy), Ser(eager));
  EXPECT_EQ(lazy.DocFreq("aa"), eager.DocFreq("aa"));
}

TEST(InvertedIndexDeleteTest, ThresholdTriggersAutoCompaction) {
  InvertedIndex index;
  for (int i = 0; i < 100; ++i) {
    index.AddDocument("k" + std::to_string(i), Tokens({"t"}));
  }
  // Each delete tombstones; once tombstones exceed kCompactionRatio of
  // the doc table, compaction fires on its own.
  size_t max_tombstones = 0;
  for (DocId id = 0; id < 40; ++id) {
    ASSERT_TRUE(index.RemoveDocument(id).ok());
    max_tombstones = std::max(max_tombstones, index.tombstone_count());
    ASSERT_EQ(index.CheckInvariants(), "");
  }
  EXPECT_LE(max_tombstones,
            static_cast<size_t>(InvertedIndex::kCompactionRatio * 100) + 1);
  EXPECT_EQ(index.doc_count(), 60u);
  EXPECT_EQ(index.DocFreq("t"), index.tombstone_count() + 60u);
}

// Property sweep: random docs added/removed; invariants always hold and
// doc counts match a reference model.
class IndexPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IndexPropertyTest, RandomOps) {
  sdms::Rng rng(GetParam());
  InvertedIndex index;
  std::vector<DocId> live;
  const char* vocab[] = {"aa", "bb", "cc", "dd", "ee", "ff"};
  for (int step = 0; step < 300; ++step) {
    if (live.empty() || rng.Bernoulli(0.7)) {
      std::vector<std::string> tokens;
      size_t n = 1 + rng.Uniform(8);
      for (size_t i = 0; i < n; ++i) tokens.push_back(vocab[rng.Uniform(6)]);
      live.push_back(index.AddDocument("k" + std::to_string(step), tokens));
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(index.RemoveDocument(live[pick]).ok());
      live.erase(live.begin() + pick);
    }
    ASSERT_EQ(index.CheckInvariants(), "") << "step " << step;
    ASSERT_EQ(index.doc_count(), live.size());
  }
  // Serialization of the final state round-trips.
  auto restored = InvertedIndex::Deserialize(Ser(index));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->doc_count(), index.doc_count());
  EXPECT_EQ(restored->total_tokens(), index.total_tokens());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         testing::Values(5, 23, 42));

}  // namespace
}  // namespace sdms::irs

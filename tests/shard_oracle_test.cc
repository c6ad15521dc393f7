// Oracle tests for fault-isolated sharded collections.
//
// The fan-out/merge contract has two halves, and each gets its oracle
// here:
//   1. Healthy: an N-shard collection's merged ranking is BIT-identical
//      to the single-shard one — same hits, same order, same score
//      bits — across shard counts, after deletes (tombstones), and
//      after compaction. PrepareSearch snapshots corpus-wide
//      statistics, so per-shard scoring must not depend on the layout.
//   2. Faulted: killing one shard degrades that shard only — the query
//      still answers from the survivors, the per-shard report names
//      the failed shard, and a transient fault inside the shard's
//      CallGuard retry budget still gives the complete answer.
// Plus the OID fan-out oracle — the router's merge of the shards'
// OID-ordered answers equals the map built from the ranked search, for
// every model, through updates, tombstones, compaction and installs —
// and the per-guard observability that makes a failing shard
// attributable: `coupling.callguard.*.<name>` counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/fault/fault.h"
#include "common/obs/metrics.h"
#include "coupling/call_guard.h"
#include "coupling_test_util.h"
#include "coupling/types.h"
#include "irs/collection.h"

namespace sdms::coupling {
namespace {

using testutil::MakeFigure4System;

// ---------------------------------------------------------------------------
// Healthy-path oracle: N shards vs one shard, bit for bit
// ---------------------------------------------------------------------------

std::unique_ptr<irs::IrsCollection> MakeShardedCollection(
    uint32_t shards, const std::string& model_name = "inquery") {
  auto model = irs::MakeModel(model_name);
  EXPECT_TRUE(model.ok());
  auto coll = std::make_unique<irs::IrsCollection>(
      "oracle", irs::AnalyzerOptions{}, std::move(*model), 1);
  EXPECT_TRUE(coll->SetNumShards(shards).ok());
  return coll;
}

/// Deterministic corpus: 120 documents over a small vocabulary, every
/// document carrying the common term "omega", document 17 alone
/// carrying "unicorn" (so for N > 1 most shards match it zero times).
void FillCorpus(irs::IrsCollection& coll) {
  const std::vector<std::string> vocab = {
      "alpha", "beta",  "gamma", "delta", "epsilon",
      "zeta",  "theta", "iota",  "kappa", "lambda"};
  for (int i = 0; i < 120; ++i) {
    std::string text = vocab[i % 10] + " " + vocab[(i * 3 + 1) % 10] + " " +
                       vocab[(i * 7 + 4) % 10] + " omega";
    if (i == 17) text += " unicorn";
    ASSERT_TRUE(coll.AddDocument("oid:" + std::to_string(i), text).ok())
        << "doc " << i;
  }
}

/// Queries covering the merge's edge cases: everything matches, one
/// document matches (all other shards come back empty), a mid-size
/// slice, a structured operator, and nothing at all.
const std::vector<std::string> kOracleQueries = {
    "omega", "unicorn", "alpha", "#or(alpha beta)", "nosuchterm"};

void ExpectBitIdentical(irs::IrsCollection& reference,
                        irs::IrsCollection& candidate, size_t k,
                        const std::string& where) {
  for (const std::string& query : kOracleQueries) {
    auto want = reference.Search(query, k);
    auto got = candidate.Search(query, k);
    ASSERT_TRUE(want.ok()) << where;
    ASSERT_TRUE(got.ok()) << where;
    ASSERT_EQ(got->size(), want->size())
        << where << " query '" << query << "'";
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_EQ((*got)[i].key, (*want)[i].key)
          << where << " query '" << query << "' rank " << i;
      // Bit-identical, not approximately-equal: the merge must not
      // perturb a single mantissa bit of the single-shard scores.
      EXPECT_EQ((*got)[i].score, (*want)[i].score)
          << where << " query '" << query << "' rank " << i;
    }
  }
}

// The bit-identity oracles must hold no matter what the environment
// armed (the CI fault matrix re-runs this binary under shard-scoped
// SDMS_FAULTS): a clean registry is part of the oracle's definition —
// healthy shards, exact answers.
class ShardOracleTest : public testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Instance().Clear(); }
  void TearDown() override { fault::FaultRegistry::Instance().Clear(); }
};

TEST_F(ShardOracleTest, FanOutBitIdenticalAcrossShardCounts) {
  auto reference = MakeShardedCollection(1);
  FillCorpus(*reference);
  for (uint32_t shards : {2u, 4u, 7u}) {
    auto candidate = MakeShardedCollection(shards);
    FillCorpus(*candidate);
    ASSERT_EQ(candidate->num_shards(), shards);
    std::string tag = "shards=" + std::to_string(shards);

    // Unbounded and top-k merges.
    ExpectBitIdentical(*reference, *candidate, 0, tag);
    ExpectBitIdentical(*reference, *candidate, 5, tag + " k=5");
    // The canonical digest abstracts the layout away entirely.
    EXPECT_EQ(candidate->CanonicalDigest(), reference->CanonicalDigest())
        << tag;
  }
}

TEST_F(ShardOracleTest, FanOutBitIdenticalWithTombstonesAndCompaction) {
  for (uint32_t shards : {2u, 4u, 7u}) {
    auto reference = MakeShardedCollection(1);
    FillCorpus(*reference);
    auto candidate = MakeShardedCollection(shards);
    FillCorpus(*candidate);
    std::string tag = "shards=" + std::to_string(shards);

    // Tombstone a spread of documents in both; the merged ranking must
    // track the reference through deletion, not just through
    // append-only growth.
    for (int i = 0; i < 120; i += 9) {
      std::string key = "oid:" + std::to_string(i);
      ASSERT_TRUE(reference->RemoveDocument(key).ok()) << key;
      ASSERT_TRUE(candidate->RemoveDocument(key).ok()) << tag << " " << key;
    }
    ExpectBitIdentical(*reference, *candidate, 0, tag + " tombstoned");

    // Compaction is per shard and must stay invisible to the merge.
    reference->CompactIndex();
    candidate->CompactIndex();
    ExpectBitIdentical(*reference, *candidate, 0, tag + " compacted");
    EXPECT_EQ(candidate->CanonicalDigest(), reference->CanonicalDigest())
        << tag << " compacted";
  }
}

TEST_F(ShardOracleTest, ShardMapFixedOnceDocumentsExist) {
  auto coll = MakeShardedCollection(2);
  ASSERT_TRUE(coll->AddDocument("oid:1", "some text").ok());
  EXPECT_FALSE(coll->SetNumShards(4).ok());
  ASSERT_TRUE(coll->RemoveDocument("oid:1").ok());
  coll->CompactIndex();
  EXPECT_EQ(coll->doc_count(), 0u);
  EXPECT_TRUE(coll->SetNumShards(4).ok());
  EXPECT_EQ(coll->num_shards(), 4u);
}

// ---------------------------------------------------------------------------
// OID fan-out oracle: the router's merged map vs the ranked search
// ---------------------------------------------------------------------------

/// What Collection::RunIrsQuerySharded builds on a healthy collection:
/// each shard's OID-ordered answer, merged in one pass.
StatusOr<OidScoreMap> FanOutMap(irs::IrsCollection& coll,
                                const std::string& query) {
  SDMS_ASSIGN_OR_RETURN(irs::IrsCollection::SearchPlan plan,
                        coll.PrepareSearch(query));
  std::vector<irs::OidHits> parts;
  for (size_t s = 0; s < coll.num_shards(); ++s) {
    SDMS_ASSIGN_OR_RETURN(irs::OidHits hits, coll.SearchShard(plan, s));
    parts.push_back(std::move(hits));
  }
  return MergeShardOidHits(parts);
}

/// Leaves, windows and every operator, #not/#wsum/#max included.
const std::vector<std::string> kFanOutQueries = {
    "omega",
    "unicorn",
    "#or(alpha beta)",
    "#and(alpha omega)",
    "#sum(gamma delta omega)",
    "#od2(alpha beta)",
    "#uw4(gamma omega)",
    "#and(omega #not(beta))",
    "#not(alpha)",
    "#wsum(2 alpha 1 #od2(alpha beta) 1 zeta)",
    "#max(alpha zeta #uw4(gamma omega))",
    "nosuchterm"};

/// The fan-out's map equals OidScoreMapFromHits over the ranked
/// Search, pair for pair and bit for bit.
void ExpectFanOutMatchesRanked(irs::IrsCollection& coll,
                               const std::string& where) {
  for (const std::string& query : kFanOutQueries) {
    auto ranked = coll.Search(query);
    ASSERT_TRUE(ranked.ok()) << where << " '" << query << "'";
    auto want = OidScoreMapFromHits(*ranked);
    ASSERT_TRUE(want.ok()) << where << " '" << query << "'";
    auto got = FanOutMap(coll, query);
    ASSERT_TRUE(got.ok()) << where << " '" << query
                          << "': " << got.status().ToString();
    ASSERT_EQ(got->size(), want->size()) << where << " '" << query << "'";
    for (auto g = got->begin(), w = want->begin(); g != got->end(); ++g, ++w) {
      ASSERT_EQ(g->first, w->first) << where << " '" << query << "'";
      EXPECT_EQ(std::bit_cast<uint64_t>(g->second),
                std::bit_cast<uint64_t>(w->second))
          << where << " '" << query << "' " << g->first.ToString();
    }
  }
}

/// True when some shard holds a live document whose OID is below that
/// of a live document with a smaller doc id — the order a shard must
/// sort before answering.
bool SomeShardOutOfOidOrder(const irs::IrsCollection& coll) {
  for (size_t s = 0; s < coll.num_shards(); ++s) {
    Oid high;
    bool out_of_order = false;
    coll.shard(s).ForEachDoc([&](irs::DocId, const irs::DocInfo& info) {
      out_of_order = out_of_order || info.oid < high;
      high = std::max(high, info.oid);
    });
    if (out_of_order) return true;
  }
  return false;
}

TEST_F(ShardOracleTest, OidFanOutMatchesRankedSearchForEveryModel) {
  for (const char* model : {"boolean", "vsm", "bm25", "inquery"}) {
    for (uint32_t shards : {1u, 2u, 4u}) {
      std::string tag =
          std::string(model) + " shards=" + std::to_string(shards);
      auto coll = MakeShardedCollection(shards, model);
      FillCorpus(*coll);
      ExpectFanOutMatchesRanked(*coll, tag + " fresh");

      // Updates re-add documents under fresh doc ids, out of OID order.
      std::vector<irs::DocOp> updates;
      for (int i : {3, 10, 41, 77}) {
        updates.push_back(irs::DocOp{"oid:" + std::to_string(i),
                                     "alpha beta unicorn omega gamma"});
      }
      ASSERT_TRUE(coll->Apply(updates).ok()) << tag;
      ASSERT_TRUE(SomeShardOutOfOidOrder(*coll)) << tag;
      ExpectFanOutMatchesRanked(*coll, tag + " updated");

      for (int i = 0; i < 120; i += 9) {
        ASSERT_TRUE(coll->RemoveDocument("oid:" + std::to_string(i)).ok());
      }
      size_t tombstones = 0;
      for (size_t s = 0; s < coll->num_shards(); ++s) {
        tombstones += coll->shard(s).tombstone_count();
      }
      ASSERT_GT(tombstones, 0u) << tag;
      ExpectFanOutMatchesRanked(*coll, tag + " tombstoned");
      coll->CompactIndex();
      ExpectFanOutMatchesRanked(*coll, tag + " compacted");

      // A full install rebuilds the OID column from the shipped keys.
      auto installed = MakeShardedCollection(shards, model);
      for (size_t s = 0; s < shards; ++s) {
        auto image = coll->SerializeShard(s);
        ASSERT_TRUE(image.ok()) << tag;
        ASSERT_TRUE(installed->InstallShard(s, *image, 0).ok()) << tag;
      }
      ExpectFanOutMatchesRanked(*installed, tag + " installed");
      for (const std::string& query : kFanOutQueries) {
        auto before = FanOutMap(*coll, query);
        auto after = FanOutMap(*installed, query);
        ASSERT_TRUE(before.ok() && after.ok()) << tag << " '" << query << "'";
        EXPECT_EQ(*after, *before) << tag << " '" << query << "'";
      }
    }
  }
}

// A document whose key names no OID cannot be mapped back to an object:
// the fan-out refuses the shard's answer rather than dropping the hit.
TEST_F(ShardOracleTest, NonOidKeyInFanOutIsCorruption) {
  auto coll = MakeShardedCollection(1);
  ASSERT_TRUE(coll->AddDocument("oid:1", "alpha omega").ok());
  ASSERT_TRUE(coll->AddDocument("doc-2", "alpha").ok());
  auto got = FanOutMap(*coll, "alpha");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  auto unaffected = FanOutMap(*coll, "omega");
  ASSERT_TRUE(unaffected.ok()) << unaffected.status().ToString();
  EXPECT_EQ(*unaffected, (OidScoreMap{{Oid(1), unaffected->at(Oid(1))}}));
}

// ---------------------------------------------------------------------------
// Faulted-path oracle: one shard down degrades, not fails
// ---------------------------------------------------------------------------

CouplingOptions FastGuardOptions() {
  CouplingOptions options;
  options.call_guard.retry.max_attempts = 2;
  options.call_guard.retry.initial_backoff_micros = 1;
  options.call_guard.retry.max_backoff_micros = 10;
  options.call_guard.breaker.failure_threshold = 16;
  options.call_guard.jitter_seed = 7;
  return options;
}

class ShardFaultTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
    ::setenv("SDMS_SHARDS", "3", 1);
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().Clear();
    ::unsetenv("SDMS_SHARDS");
  }
};

TEST_F(ShardFaultTest, KilledShardDegradesQueryAndIsNamed) {
  auto sys = MakeFigure4System(FastGuardOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");
  auto irs_coll = *sys->irs_engine->GetCollection("paras");
  ASSERT_EQ(irs_coll->num_shards(), 3u);

  // The fault-free complete answer, for comparison.
  auto complete_or = coll->GetIrsResult("www");
  ASSERT_TRUE(complete_or.ok());
  OidScoreMap complete = **complete_or;
  coll->buffer().Clear();

  // Kill shard 1's search path hard: every attempt (the guard's
  // retries included) fails.
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.probability = 1.0;
  fault::FaultRegistry::Instance().Arm(irs::ShardSearchFaultPoint(1), rule);

  bool stale = false;
  auto partial_or = coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(partial_or.ok())
      << "a single dead shard must degrade the query, not fail it: "
      << partial_or.status().ToString();
  EXPECT_FALSE(stale);

  // The report names exactly the failed shard; the survivors are ok.
  const std::vector<ShardStatusEntry>& report = coll->last_shard_report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].state, ShardState::kOk);
  EXPECT_EQ(report[1].state, ShardState::kFailed);
  EXPECT_FALSE(report[1].detail.empty());
  EXPECT_EQ(report[1].collection, "paras");
  EXPECT_EQ(report[2].state, ShardState::kOk);
  EXPECT_EQ(coll->stats().shard_degraded_queries, 1u);

  // The partial answer is a subset of the complete one with identical
  // scores for every surviving document.
  for (const auto& [oid, score] : **partial_or) {
    auto it = complete.find(oid);
    ASSERT_NE(it, complete.end()) << oid.ToString();
    EXPECT_EQ(it->second, score) << oid.ToString();
  }

  // A second degraded answer is the caller's own as well: it shares no
  // storage with the first, and neither entered the buffer.
  const OidScoreMap first = **partial_or;
  auto again_or = coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(again_or.ok()) << again_or.status().ToString();
  EXPECT_NE(again_or->get(), partial_or->get());
  EXPECT_EQ(**partial_or, first);
  EXPECT_EQ(**again_or, first);
  EXPECT_EQ(coll->buffer().size(), 0u);

  // Once the shard recovers, the next query is complete again — the
  // partial result must not have been buffered.
  fault::FaultRegistry::Instance().Clear();
  auto healed_or = coll->GetIrsResult("www");
  ASSERT_TRUE(healed_or.ok());
  EXPECT_EQ(**healed_or, complete);
  for (const ShardStatusEntry& e : coll->last_shard_report()) {
    EXPECT_EQ(e.state, ShardState::kOk) << "shard " << e.shard;
  }
}

TEST_F(ShardFaultTest, TransientShardFailureWithinRetryBudgetIsComplete) {
  auto sys = MakeFigure4System(FastGuardOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");

  auto complete_or = coll->GetIrsResult("www");
  ASSERT_TRUE(complete_or.ok());
  OidScoreMap complete = **complete_or;
  coll->buffer().Clear();

  // One fire against a two-attempt guard: the guard's own retry
  // absorbs it, so the shard answers inside its guarded call.
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.probability = 1.0;
  rule.max_fires = 1;
  fault::FaultRegistry::Instance().Arm(irs::ShardSearchFaultPoint(2), rule);

  bool stale = false;
  auto retried_or = coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(retried_or.ok());
  EXPECT_FALSE(stale);
  EXPECT_EQ(**retried_or, complete)
      << "a fault inside the retry budget must not change the answer";

  const std::vector<ShardStatusEntry>& report = coll->last_shard_report();
  ASSERT_EQ(report.size(), 3u);
  for (const ShardStatusEntry& e : report) {
    EXPECT_EQ(e.state, ShardState::kOk) << "shard " << e.shard;
  }
  EXPECT_EQ(coll->stats().shard_degraded_queries, 0u);
}

TEST_F(ShardFaultTest, ShardFailureOutlastingRetryBudgetIsPartial) {
  auto sys = MakeFigure4System(FastGuardOptions());
  auto coll = *sys->coupling->GetCollectionByName("paras");

  auto complete_or = coll->GetIrsResult("www");
  ASSERT_TRUE(complete_or.ok());
  OidScoreMap complete = **complete_or;
  coll->buffer().Clear();

  // Two fires spend both of the guard's attempts. The guard is the
  // only retry layer — nothing re-issues the shard after the join —
  // so the query degrades with shard 2 named failed.
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.probability = 1.0;
  rule.max_fires = 2;
  fault::FaultRegistry::Instance().Arm(irs::ShardSearchFaultPoint(2), rule);

  bool stale = false;
  auto partial_or = coll->GetIrsResult("www", &stale);
  ASSERT_TRUE(partial_or.ok()) << partial_or.status().ToString();
  EXPECT_FALSE(stale);

  const std::vector<ShardStatusEntry>& report = coll->last_shard_report();
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].state, ShardState::kOk);
  EXPECT_EQ(report[1].state, ShardState::kOk);
  EXPECT_EQ(report[2].state, ShardState::kFailed);
  EXPECT_FALSE(report[2].detail.empty());
  EXPECT_EQ(coll->stats().shard_degraded_queries, 1u);
  for (const auto& [oid, score] : **partial_or) {
    auto it = complete.find(oid);
    ASSERT_NE(it, complete.end()) << oid.ToString();
    EXPECT_EQ(it->second, score) << oid.ToString();
  }

  // The fault is spent: the next query is complete and all-ok again.
  auto healed_or = coll->GetIrsResult("www");
  ASSERT_TRUE(healed_or.ok());
  EXPECT_EQ(**healed_or, complete);
  for (const ShardStatusEntry& e : coll->last_shard_report()) {
    EXPECT_EQ(e.state, ShardState::kOk) << "shard " << e.shard;
  }
}

// ---------------------------------------------------------------------------
// Per-guard name-labelled metrics
// ---------------------------------------------------------------------------

TEST(CallGuardNamedMetricsTest, CountersCarryTheGuardName) {
  const std::string name = "shard_oracle_nmtest";
  obs::Counter& calls =
      obs::GetCounter("coupling.callguard.calls." + name);
  obs::Counter& retries =
      obs::GetCounter("coupling.callguard.retries." + name);
  obs::Counter& failures =
      obs::GetCounter("coupling.callguard.failures." + name);
  const uint64_t calls0 = calls.value();
  const uint64_t retries0 = retries.value();
  const uint64_t failures0 = failures.value();

  CallGuardOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_micros = 1;
  options.retry.max_backoff_micros = 2;
  options.jitter_seed = 3;
  CallGuard guard(options, name);

  EXPECT_TRUE(guard.Run("op", []() { return Status::OK(); }).ok());
  EXPECT_EQ(calls.value(), calls0 + 1);
  EXPECT_EQ(failures.value(), failures0);

  EXPECT_FALSE(
      guard.Run("op", []() { return Status::IoError("down"); }).ok());
  EXPECT_EQ(calls.value(), calls0 + 2);
  EXPECT_EQ(retries.value(), retries0 + 1);  // one retry of two attempts
  EXPECT_EQ(failures.value(), failures0 + 1);

  // A second guard with a different name moves its own counters, not
  // this one's.
  CallGuard other(options, name + "_other");
  EXPECT_TRUE(other.Run("op", []() { return Status::OK(); }).ok());
  EXPECT_EQ(calls.value(), calls0 + 2);
}

}  // namespace
}  // namespace sdms::coupling

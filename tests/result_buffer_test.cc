#include "coupling/result_buffer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault/fault.h"
#include "coupling/mixed_query.h"
#include "coupling_test_util.h"
#include "irs/collection.h"

namespace sdms::coupling {
namespace {

/// A byte budget holding exactly `n` entries with a one-letter query and
/// one IRS pair each (the shape of the LRU cases below).
size_t BudgetForEntries(size_t n) {
  return n * ResultBuffer::ApproxEntryBytes("a", OidScoreMap{{Oid(1), 1.0}});
}

TEST(ResultBufferTest, MissThenHit) {
  ResultBuffer buf;
  EXPECT_EQ(buf.Get("q"), nullptr);
  EXPECT_EQ(buf.misses(), 1u);
  buf.Put("q", {{Oid(1), 0.5}});
  auto r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(buf.hits(), 1u);
  EXPECT_DOUBLE_EQ(r->at(Oid(1)), 0.5);
}

TEST(ResultBufferTest, PutReplaces) {
  ResultBuffer buf;
  buf.Put("q", {{Oid(1), 0.5}});
  buf.Put("q", {{Oid(2), 0.7}});
  auto r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->count(Oid(2)), 1u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(ResultBufferTest, InsertValueAugments) {
  ResultBuffer buf;
  const OidScoreMap irs{{Oid(1), 0.5}};
  buf.Put("q", irs);
  buf.InsertValue("q", Oid(9), 0.3);
  // The derived value is found in the side table, which holds only
  // derived values...
  EXPECT_EQ(buf.FindDerived("q", Oid(9)), 0.3);
  EXPECT_EQ(buf.FindDerived("q", Oid(1)), std::nullopt);
  EXPECT_EQ(buf.FindDerived("q", Oid(4)), std::nullopt);
  // ...while the IRS result stays exactly what the IRS returned.
  auto r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(*r, irs);
  // Only Get counts: FindDerived reads an entry its caller counted.
  EXPECT_EQ(buf.hits(), 1u);
  // InsertValue on a missing query creates nothing.
  buf.InsertValue("fresh", Oid(2), 0.1);
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.FindDerived("fresh", Oid(2)), std::nullopt);
  EXPECT_EQ(buf.misses(), 0u);
}

TEST(ResultBufferTest, NullScoreLivesAndDiesWithTheEntry) {
  ResultBuffer buf;
  buf.SetNullScore("q", 0.4);  // not buffered: nothing is cached
  EXPECT_EQ(buf.FindNullScore("q"), std::nullopt);
  buf.Put("q", {{Oid(1), 0.5}});
  buf.SetNullScore("q", 0.4);
  EXPECT_EQ(buf.FindNullScore("q"), 0.4);
  buf.Clear();
  EXPECT_EQ(buf.FindNullScore("q"), std::nullopt);
  EXPECT_EQ(buf.hits() + buf.misses(), 0u);
}

TEST(ResultBufferTest, ReplacingPutDropsDerivedValues) {
  ResultBuffer buf;
  buf.Put("q", {{Oid(1), 0.5}});
  buf.InsertValue("q", Oid(9), 0.3);
  buf.Put("q", {{Oid(1), 0.6}});
  EXPECT_EQ(buf.FindDerived("q", Oid(9)), std::nullopt);
  EXPECT_EQ(buf.bytes(),
            ResultBuffer::ApproxEntryBytes("q", OidScoreMap{{Oid(1), 0.6}}));
}

TEST(ResultBufferTest, HandlesOutliveTheirEntries) {
  // Room for the largest entry below, but not for two.
  ResultBuffer buf(ResultBuffer::ApproxEntryBytes(
      "a", OidScoreMap{{Oid(1), 0.25}, {Oid(2), 0.5}}));
  buf.Put("a", {{Oid(1), 0.25}, {Oid(2), 0.5}});
  auto replaced = buf.Get("a");
  buf.Put("a", {{Oid(3), 0.75}});
  auto evicted = buf.Get("a");
  buf.Put("b", {{Oid(4), 1.0}});  // evicts "a"
  EXPECT_EQ(buf.evictions(), 1u);
  auto cleared = buf.Get("b");
  buf.Clear();
  // Every handle still reads the result it was given.
  ASSERT_NE(replaced, nullptr);
  EXPECT_EQ(*replaced, (OidScoreMap{{Oid(1), 0.25}, {Oid(2), 0.5}}));
  ASSERT_NE(evicted, nullptr);
  EXPECT_EQ(*evicted, (OidScoreMap{{Oid(3), 0.75}}));
  ASSERT_NE(cleared, nullptr);
  EXPECT_EQ(*cleared, (OidScoreMap{{Oid(4), 1.0}}));
}

TEST(ResultBufferTest, ConcurrentReadersKeepTheirHandles) {
  // A reader keeps using its handles while a writer replaces, evicts
  // and clears entries (run under TSan/ASan in CI).
  const OidScoreMap result{{Oid(1), 0.5}, {Oid(2), 0.25}};
  // Room for "q" with its derived value and one other entry, not three.
  ResultBuffer buf(2 * ResultBuffer::ApproxEntryBytes("q", result, 1));
  buf.Put("q", result);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      buf.Put("q", result);
      buf.InsertValue("q", Oid(9), 0.125);
      buf.Put("other" + std::to_string(i % 3), {{Oid(3), 1.0}});
      if (i % 7 == 0) buf.Clear();
    }
    done = true;
  });
  while (!done) {
    if (auto r = buf.Get("q")) {
      EXPECT_EQ(*r, result);
    }
    if (std::optional<double> d = buf.FindDerived("q", Oid(9))) {
      EXPECT_DOUBLE_EQ(*d, 0.125);
    }
  }
  writer.join();
}

TEST(ResultBufferTest, ClearAndErase) {
  ResultBuffer buf;
  buf.Put("a", {{Oid(1), 1.0}});
  buf.Put("b", {{Oid(2), 1.0}});
  buf.Erase("a");
  EXPECT_EQ(buf.Get("a"), nullptr);
  EXPECT_NE(buf.Get("b"), nullptr);
  buf.Clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.Get("b"), nullptr);
}

TEST(ResultBufferTest, LruEviction) {
  ResultBuffer buf(BudgetForEntries(2));
  buf.Put("a", {{Oid(1), 1.0}});
  buf.Put("b", {{Oid(2), 1.0}});
  // Touch "a" so "b" is the LRU victim.
  EXPECT_NE(buf.Get("a"), nullptr);
  buf.Put("c", {{Oid(3), 1.0}});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_NE(buf.Get("a"), nullptr);
  EXPECT_EQ(buf.Get("b"), nullptr);  // evicted
  EXPECT_NE(buf.Get("c"), nullptr);
}

TEST(ResultBufferTest, LruEvictionOrderFollowsHits) {
  ResultBuffer buf(BudgetForEntries(3));
  buf.Put("a", {{Oid(1), 1.0}});
  buf.Put("b", {{Oid(2), 1.0}});
  buf.Put("c", {{Oid(3), 1.0}});
  // Recency after these hits, oldest first: c, a, b.
  EXPECT_NE(buf.Get("b"), nullptr);
  EXPECT_NE(buf.Get("a"), nullptr);
  EXPECT_NE(buf.Get("b"), nullptr);
  buf.Put("d", {{Oid(4), 1.0}});  // evicts c
  EXPECT_EQ(buf.evictions(), 1u);
  buf.Put("e", {{Oid(5), 1.0}});  // evicts a
  EXPECT_EQ(buf.evictions(), 2u);
  EXPECT_EQ(buf.Get("a"), nullptr);
  EXPECT_EQ(buf.Get("c"), nullptr);
  // A hit refreshes recency: b, d, e -> d, e, b.
  EXPECT_NE(buf.Get("b"), nullptr);
  // A Put that replaces an entry refreshes it too.
  buf.Put("d", {{Oid(7), 1.0}});  // recency: e, b, d
  buf.Put("g", {{Oid(8), 1.0}});  // evicts e
  EXPECT_EQ(buf.Get("e"), nullptr);
  EXPECT_NE(buf.Get("b"), nullptr);
  EXPECT_NE(buf.Get("d"), nullptr);
}

// ---------------------------------------------------------------------------
// OidScoreMap and the IRS-hit builder
// ---------------------------------------------------------------------------

TEST(OidScoreMapTest, BuiltSortedFromUnsortedHits) {
  std::vector<irs::SearchHit> shard0 = {{"oid:42", 0.5}, {"oid:7", 0.9}};
  std::vector<irs::SearchHit> shard1 = {{"oid:19", 0.1}, {"oid:3", 0.7}};
  const std::vector<irs::SearchHit> parts[] = {shard0, shard1};
  auto map = OidScoreMapFromHits(parts);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  std::vector<uint64_t> order;
  for (const auto& [oid, score] : *map) order.push_back(oid.raw());
  EXPECT_EQ(order, (std::vector<uint64_t>{3, 7, 19, 42}));
  EXPECT_EQ(*map, (OidScoreMap{{Oid(42), 0.5},
                               {Oid(7), 0.9},
                               {Oid(19), 0.1},
                               {Oid(3), 0.7}}));
}

TEST(OidScoreMapTest, FindPresentAndAbsent) {
  const OidScoreMap map{{Oid(10), 0.1}, {Oid(30), 0.3}, {Oid(20), 0.2}};
  ASSERT_NE(map.find(Oid(20)), map.end());
  EXPECT_DOUBLE_EQ(map.find(Oid(20))->second, 0.2);
  EXPECT_DOUBLE_EQ(map.at(Oid(30)), 0.3);
  EXPECT_EQ(map.count(Oid(10)), 1u);
  for (uint64_t absent : {0, 5, 15, 25, 35}) {
    EXPECT_EQ(map.find(Oid(absent)), map.end()) << absent;
    EXPECT_EQ(map.count(Oid(absent)), 0u) << absent;
  }
  EXPECT_THROW(map.at(Oid(5)), std::out_of_range);
  EXPECT_EQ(OidScoreMap().find(Oid(1)), OidScoreMap().end());
}

TEST(OidScoreMapTest, Equality) {
  const OidScoreMap a{{Oid(1), 0.5}, {Oid(2), 0.25}};
  EXPECT_EQ(a, (OidScoreMap{{Oid(2), 0.25}, {Oid(1), 0.5}}));
  EXPECT_NE(a, (OidScoreMap{{Oid(1), 0.5}}));
  EXPECT_NE(a, (OidScoreMap{{Oid(1), 0.5}, {Oid(2), 0.5}}));
  EXPECT_NE(a, (OidScoreMap{{Oid(1), 0.5}, {Oid(3), 0.25}}));
}

TEST(OidScoreMapTest, MalformedKeysAreCorruption) {
  EXPECT_EQ(ParseOidKey("oid:12").value(), Oid(12));
  EXPECT_EQ(ParseOidKey("oid:18446744073709551615").value(),
            Oid(UINT64_MAX));
  for (const char* key :
       {"oid:12x", "oid:-1", "oid: 7", "oid:+7", "oid:", "oid:7 ", "oid:0x1f",
        "oid:18446744073709551616", "xid:7", "7", ""}) {
    StatusOr<Oid> oid = ParseOidKey(key);
    ASSERT_FALSE(oid.ok()) << key;
    EXPECT_EQ(oid.status().code(), StatusCode::kCorruption) << key;
  }
  const std::vector<irs::SearchHit> bad[] = {{{"oid:1", 0.5}, {"oid:2x", 0.5}}};
  auto map = OidScoreMapFromHits(bad);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kCorruption);
}

TEST(OidScoreMapTest, DuplicateOidIsCorruption) {
  // The same document reported by two shards.
  const std::vector<irs::SearchHit> parts[] = {{{"oid:5", 0.5}},
                                               {{"oid:6", 0.1}, {"oid:5", 0.5}}};
  auto map = OidScoreMapFromHits(parts);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kCorruption);
  auto direct = OidScoreMap::FromUnsorted({{Oid(2), 0.1}, {Oid(2), 0.2}});
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kCorruption);
}

TEST(OidBitSetTest, MembersIterateInOrderAcrossChunks) {
  // OIDs spread over several 2^18-OID chunks, with empty chunks between
  // them, inserted out of order and once twice.
  const uint64_t chunk = uint64_t{1} << 18;
  const std::vector<uint64_t> raws = {3 * chunk + 7, 1,      chunk - 1,
                                      chunk,         63,     64,
                                      5 * chunk,     chunk - 1};
  OidBitSet set;
  for (uint64_t raw : raws) set.insert(Oid(raw));
  const std::vector<uint64_t> want = {1,     63,        64,       chunk - 1,
                                      chunk, 3 * chunk + 7, 5 * chunk};
  std::vector<uint64_t> got;
  for (Oid oid : set) got.push_back(oid.raw());
  EXPECT_EQ(got, want);
  EXPECT_EQ(set.size(), want.size());
  for (uint64_t raw : want) EXPECT_TRUE(set.contains(Oid(raw))) << raw;
  for (uint64_t raw : {uint64_t{0}, uint64_t{2}, chunk + 1, 4 * chunk,
                       9 * chunk, uint64_t{1} << 62}) {
    EXPECT_FALSE(set.contains(Oid(raw))) << raw;
  }
}

TEST(OidBitSetTest, EmptiedChunksAreSkippedAndRefilled) {
  const uint64_t chunk = uint64_t{1} << 18;
  OidBitSet set;
  for (uint64_t raw : {uint64_t{5}, chunk + 1, chunk + 2, 2 * chunk}) {
    set.insert(Oid(raw));
  }
  // Emptying the middle chunk frees it; iteration and lookups step over
  // the gap, and erasing an absent OID is a no-op.
  set.erase(Oid(chunk + 1));
  set.erase(Oid(chunk + 2));
  set.erase(Oid(chunk + 2));
  set.erase(Oid(7 * chunk));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.contains(Oid(chunk + 1)));
  EXPECT_EQ(std::vector<Oid>(set.begin(), set.end()),
            (std::vector<Oid>{Oid(5), Oid(2 * chunk)}));
  set.insert(Oid(chunk + 2));
  EXPECT_EQ(std::vector<Oid>(set.begin(), set.end()),
            (std::vector<Oid>{Oid(5), Oid(chunk + 2), Oid(2 * chunk)}));
  set.erase(Oid(5));
  set.erase(Oid(chunk + 2));
  set.erase(Oid(2 * chunk));
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.begin() == set.end());
  set.clear();
  EXPECT_TRUE(set.begin() == set.end());
}

/// Degraded-read behaviour of the buffer inside a live coupling: when
/// the IRS is unavailable the buffer is the stale fallback store.
class DegradedReadTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
  }
  void TearDown() override { fault::FaultRegistry::Instance().Clear(); }

  static CouplingOptions FastGuardOptions() {
    CouplingOptions options;
    options.call_guard.retry.max_attempts = 2;
    options.call_guard.retry.initial_backoff_micros = 1;
    options.call_guard.retry.max_backoff_micros = 10;
    options.call_guard.breaker.failure_threshold = 1000;
    return options;
  }

  static void ArmHardIoError() {
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kIoError;
    fault::FaultRegistry::Instance().Arm("coupling.irs_call", rule);
  }
};

TEST_F(DegradedReadTest, BreakerDownServesStaleFlagged) {
  auto sys = testutil::MakeFigure4System(FastGuardOptions());
  Collection* coll = *sys->coupling->GetCollectionByName("paras");
  auto fresh = coll->GetIrsResult("www");
  ASSERT_TRUE(fresh.ok());
  OidScoreMap buffered = **fresh;

  // A pending update makes the next query propagate first — which
  // fails against the hard-down IRS; the buffered result is served
  // stale and explicitly flagged.
  Oid para = *coll->represented().begin();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("changed text")).ok());
  ArmHardIoError();
  bool served_stale = false;
  auto stale = coll->GetIrsResult("www", &served_stale);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(served_stale);
  EXPECT_EQ(**stale, buffered);  // pre-update snapshot, not half-updated
  EXPECT_GT(coll->stats().stale_serves, 0u);
  // The update stayed queued for replay.
  EXPECT_GT(coll->pending_updates(), 0u);

  // An unbuffered query has no stale fallback: clean classified error.
  bool flag = true;
  auto miss = coll->GetIrsResult("neverbufferedterm", &flag);
  EXPECT_FALSE(miss.ok());
  EXPECT_TRUE(IsUnavailable(miss.status()));
}

TEST_F(DegradedReadTest, FindIrsValueFallsBackCleanly) {
  auto sys = testutil::MakeFigure4System(FastGuardOptions());
  Collection* coll = *sys->coupling->GetCollectionByName("paras");
  Oid para = *coll->represented().begin();

  ArmHardIoError();
  // Represented object, nothing buffered: the null score stands in and
  // the value is flagged as not IRS-fresh.
  bool degraded = false;
  auto value = coll->FindIrsValue("www", para, &degraded);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_TRUE(degraded);
  auto null_score = coll->NullScore("www");
  ASSERT_TRUE(null_score.ok());
  EXPECT_DOUBLE_EQ(*value, *null_score);
  EXPECT_GT(coll->stats().degraded_reads, 0u);

  // Once the IRS is back, the same lookup is fresh again.
  fault::FaultRegistry::Instance().Clear();
  degraded = true;
  auto fresh = coll->FindIrsValue("www", para, &degraded);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(degraded);
}

TEST_F(DegradedReadTest, MixedStatementFallsBackWhenNothingIsBuffered) {
  // The IRS is down and nothing is buffered: the prepare-stage warm-up
  // fails, yet the statement answers from FindIrsValue's fallback (the
  // null score 0.4 clears 0.3) and says it is degraded, and why.
  auto sys = testutil::MakeFigure4System(FastGuardOptions());
  ArmHardIoError();
  MixedQueryEvaluator eval(sys->coupling.get());
  for (auto strategy : {MixedQueryEvaluator::Strategy::kIndependent,
                        MixedQueryEvaluator::Strategy::kIrsFirst}) {
    auto r = eval.Run(
        "ACCESS p FROM p IN PARA WHERE p -> getIRSValue('paras', 'www') > 0.3",
        strategy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), sys->db->ExtentSize("PARA"));
    EXPECT_TRUE(r->degraded);
    EXPECT_NE(r->degraded_reason.find("injected fault at coupling.irs_call"),
              std::string::npos)
        << r->degraded_reason;
    EXPECT_TRUE(eval.last_run().degraded);
  }
}

TEST_F(DegradedReadTest, RecoveryReplaysExactlyOnce) {
  auto sys = testutil::MakeFigure4System(FastGuardOptions());
  Collection* coll = *sys->coupling->GetCollectionByName("paras");
  ASSERT_TRUE(coll->GetIrsResult("www").ok());

  Oid para = *coll->represented().begin();
  ASSERT_TRUE(
      sys->db->SetAttribute(para, "TEXT", oodb::Value("zanzibar topic")).ok());
  ArmHardIoError();
  // Several stale serves while down — the queued modify must not be
  // duplicated by repeated failed propagation attempts.
  for (int i = 0; i < 3; ++i) {
    bool served_stale = false;
    auto r = coll->GetIrsResult("www", &served_stale);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(served_stale);
  }
  EXPECT_EQ(coll->pending_updates(), 1u);

  // IRS back: the next query propagates the modify exactly once and
  // serves fresh.
  fault::FaultRegistry::Instance().Clear();
  bool served_stale = true;
  auto fresh = coll->GetIrsResult("zanzibar", &served_stale);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(served_stale);
  EXPECT_EQ((*fresh)->count(para), 1u);
  EXPECT_EQ(coll->pending_updates(), 0u);
  EXPECT_EQ(coll->update_log().recorded(), 1u);
}

}  // namespace
}  // namespace sdms::coupling

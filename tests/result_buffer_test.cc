#include "coupling/result_buffer.h"

#include <gtest/gtest.h>

#include "common/fault/fault.h"
#include "coupling_test_util.h"

namespace sdms::coupling {
namespace {

TEST(ResultBufferTest, MissThenHit) {
  ResultBuffer buf;
  EXPECT_EQ(buf.Get("q"), nullptr);
  EXPECT_EQ(buf.misses(), 1u);
  buf.Put("q", {{Oid(1), 0.5}});
  const OidScoreMap* r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(buf.hits(), 1u);
  EXPECT_DOUBLE_EQ(r->at(Oid(1)), 0.5);
}

TEST(ResultBufferTest, PutReplaces) {
  ResultBuffer buf;
  buf.Put("q", {{Oid(1), 0.5}});
  buf.Put("q", {{Oid(2), 0.7}});
  const OidScoreMap* r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(r->count(Oid(2)), 1u);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(ResultBufferTest, InsertValueAugments) {
  ResultBuffer buf;
  buf.Put("q", {{Oid(1), 0.5}});
  buf.InsertValue("q", Oid(9), 0.3);
  const OidScoreMap* r = buf.Get("q");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ(r->at(Oid(9)), 0.3);
  // InsertValue on a missing query creates the entry.
  buf.InsertValue("fresh", Oid(2), 0.1);
  EXPECT_NE(buf.Get("fresh"), nullptr);
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
  ResultBuffer buf(2);
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
  ResultBuffer buf(3);
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
  // Serialize writes LRU order, oldest first: b, d, e.
  ResultBuffer restored(3);
  ASSERT_TRUE(restored.Restore(buf.Serialize()).ok());
  restored.Put("f", {{Oid(6), 1.0}});  // evicts b
  EXPECT_EQ(restored.Get("b"), nullptr);
  EXPECT_NE(restored.Get("d"), nullptr);
  EXPECT_NE(restored.Get("e"), nullptr);
  EXPECT_NE(restored.Get("f"), nullptr);
  EXPECT_EQ(buf.Get("a"), nullptr);
  EXPECT_EQ(buf.Get("c"), nullptr);
  EXPECT_NE(buf.Get("b"), nullptr);
  // A Put that replaces an entry refreshes it too.
  buf.Put("d", {{Oid(7), 1.0}});  // recency: e, b, d
  buf.Put("g", {{Oid(8), 1.0}});  // evicts e
  EXPECT_EQ(buf.Get("e"), nullptr);
  EXPECT_NE(buf.Get("d"), nullptr);
}

TEST(ResultBufferTest, PersistRoundTrip) {
  ResultBuffer buf;
  buf.Put("#and(www nii)", {{Oid(1), 0.62}, {Oid(2), 0.41}});
  buf.Put("telnet", {{Oid(7), 0.9}});
  std::string blob = buf.Serialize();

  ResultBuffer restored;
  ASSERT_TRUE(restored.Restore(blob).ok());
  EXPECT_EQ(restored.size(), 2u);
  const OidScoreMap* r = restored.Get("#and(www nii)");
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->at(Oid(1)), 0.62);
  EXPECT_DOUBLE_EQ(r->at(Oid(2)), 0.41);
}

TEST(ResultBufferTest, RestoreGarbageFails) {
  ResultBuffer buf;
  EXPECT_FALSE(buf.Restore("xx").ok());
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

#include "oodb/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace sdms::oodb {
namespace {

TEST(ObjectStoreTest, AllocateMonotonic) {
  ObjectStore store;
  Oid a = store.AllocateOid();
  Oid b = store.AllocateOid();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
}

TEST(ObjectStoreTest, InsertGetRemove) {
  ObjectStore store;
  Oid oid = store.AllocateOid();
  DbObject obj(oid, "PARA");
  obj.Set("TEXT", Value("hello"));
  ASSERT_TRUE(store.Insert(std::move(obj)).ok());
  EXPECT_TRUE(store.Contains(oid));
  EXPECT_EQ(store.size(), 1u);

  auto got = store.Get(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->class_name(), "PARA");
  EXPECT_EQ((*got)->GetOr("TEXT", Value()).as_string(), "hello");

  ASSERT_TRUE(store.Remove(oid).ok());
  EXPECT_FALSE(store.Contains(oid));
  EXPECT_FALSE(store.Get(oid).ok());
  EXPECT_FALSE(store.Remove(oid).ok());
}

TEST(ObjectStoreTest, DuplicateInsertRejected) {
  ObjectStore store;
  Oid oid = store.AllocateOid();
  ASSERT_TRUE(store.Insert(DbObject(oid, "A")).ok());
  EXPECT_FALSE(store.Insert(DbObject(oid, "A")).ok());
}

TEST(ObjectStoreTest, NullOidRejected) {
  ObjectStore store;
  EXPECT_FALSE(store.Insert(DbObject(kNullOid, "A")).ok());
}

TEST(ObjectStoreTest, DirectExtent) {
  ObjectStore store;
  Oid a = store.AllocateOid();
  Oid b = store.AllocateOid();
  Oid c = store.AllocateOid();
  ASSERT_TRUE(store.Insert(DbObject(a, "PARA")).ok());
  ASSERT_TRUE(store.Insert(DbObject(b, "SECTION")).ok());
  ASSERT_TRUE(store.Insert(DbObject(c, "PARA")).ok());
  auto extent = store.DirectExtent("PARA");
  ASSERT_EQ(extent.size(), 2u);
  EXPECT_EQ(extent[0], a);
  EXPECT_EQ(extent[1], c);
  EXPECT_EQ(store.DirectExtentSize("SECTION"), 1u);
  EXPECT_EQ(store.DirectExtentSize("NONE"), 0u);

  ASSERT_TRUE(store.Remove(a).ok());
  EXPECT_EQ(store.DirectExtentSize("PARA"), 1u);
}

TEST(ObjectStoreTest, WatermarkBumpOnInsert) {
  ObjectStore store;
  ASSERT_TRUE(store.Insert(DbObject(Oid(100), "A")).ok());
  Oid next = store.AllocateOid();
  EXPECT_GT(next.raw(), 100u);
}

TEST(ObjectStoreTest, ForEachOidOrder) {
  ObjectStore store;
  ASSERT_TRUE(store.Insert(DbObject(Oid(5), "A")).ok());
  ASSERT_TRUE(store.Insert(DbObject(Oid(2), "A")).ok());
  ASSERT_TRUE(store.Insert(DbObject(Oid(9), "A")).ok());
  std::vector<uint64_t> seen;
  store.ForEach([&](const DbObject& o) { seen.push_back(o.oid().raw()); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], 2u);
  EXPECT_EQ(seen[1], 5u);
  EXPECT_EQ(seen[2], 9u);
}

std::vector<uint64_t> ForEachOids(const ObjectStore& store) {
  std::vector<uint64_t> seen;
  store.ForEach([&](const DbObject& o) { seen.push_back(o.oid().raw()); });
  return seen;
}

std::vector<uint64_t> Raw(const std::vector<Oid>& oids) {
  std::vector<uint64_t> out;
  for (Oid oid : oids) out.push_back(oid.raw());
  return out;
}

TEST(ObjectStoreTest, ForEachOidOrderAfterInterleavedInsertRemove) {
  ObjectStore store;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  }
  ASSERT_TRUE(store.Remove(Oid(2)).ok());
  ASSERT_TRUE(store.Remove(Oid(5)).ok());
  ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "B")).ok());  // 7
  ASSERT_TRUE(store.Remove(Oid(1)).ok());
  // Re-inserting a removed OID, as an aborted delete or WAL replay
  // does, lands it in the middle.
  ASSERT_TRUE(store.Insert(DbObject(Oid(2), "A")).ok());
  EXPECT_EQ(ForEachOids(store), (std::vector<uint64_t>{2, 3, 4, 6, 7}));
  EXPECT_EQ(Raw(store.DirectExtent("A")), (std::vector<uint64_t>{2, 3, 4, 6}));
  EXPECT_EQ(Raw(store.DirectExtent("B")), (std::vector<uint64_t>{7}));
}

TEST(ObjectStoreTest, DirectExtentSortedAfterOutOfOrderInserts) {
  // WAL replay after a snapshot can insert below OIDs already present.
  ObjectStore store;
  for (uint64_t raw : {40, 10, 30, 50, 20, 5, 45}) {
    ASSERT_TRUE(store.Insert(DbObject(Oid(raw), "PARA")).ok());
  }
  EXPECT_EQ(Raw(store.DirectExtent("PARA")),
            (std::vector<uint64_t>{5, 10, 20, 30, 40, 45, 50}));
  ASSERT_TRUE(store.Remove(Oid(30)).ok());
  ASSERT_TRUE(store.Remove(Oid(5)).ok());
  ASSERT_TRUE(store.Remove(Oid(50)).ok());
  EXPECT_EQ(Raw(store.DirectExtent("PARA")),
            (std::vector<uint64_t>{10, 20, 40, 45}));
  EXPECT_EQ(store.DirectExtentSize("PARA"), 4u);
  EXPECT_EQ(ForEachOids(store), (std::vector<uint64_t>{10, 20, 40, 45}));
  EXPECT_EQ(store.next_oid(), 51u);
}

TEST(ObjectStoreTest, GetPointerStableAcrossInserts) {
  ObjectStore store;
  Oid first = store.AllocateOid();
  ASSERT_TRUE(store.Insert(DbObject(first, "A")).ok());
  auto got = store.Get(first);
  ASSERT_TRUE(got.ok());
  DbObject* ptr = *got;
  ptr->Set("X", Value(7));
  // Enough inserts to grow the table, and its page directory, many
  // times over, plus one far insert that grows the directory at once.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  }
  ASSERT_TRUE(store.Insert(DbObject(Oid(store.next_oid() + 100000), "A")).ok());
  auto again = store.Get(first);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ptr);
  EXPECT_EQ(store.Find(first), ptr);
  EXPECT_EQ(ptr->oid(), first);
  EXPECT_EQ(ptr->GetOr("X", Value()).as_int(), 7);
}

TEST(ObjectStoreTest, HolesAndPastTheEndAreAbsent) {
  ObjectStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  }
  ASSERT_TRUE(store.Remove(Oid(4)).ok());
  ASSERT_TRUE(store.Remove(Oid(10)).ok());
  EXPECT_EQ(store.size(), 8u);
  // A hole inside the table and one at its end.
  for (uint64_t raw : {4, 10}) {
    EXPECT_FALSE(store.Contains(Oid(raw))) << raw;
    EXPECT_EQ(store.Find(Oid(raw)), nullptr) << raw;
    EXPECT_TRUE(store.Get(Oid(raw)).status().IsNotFound()) << raw;
    EXPECT_TRUE(store.Remove(Oid(raw)).IsNotFound()) << raw;
  }
  // The null OID, just past the last slot, past the last page, and
  // far beyond it: absent, and looking never grows the table.
  for (uint64_t raw : {uint64_t{0}, uint64_t{11}, uint64_t{1000},
                       uint64_t{1} << 62, ~uint64_t{0}}) {
    EXPECT_FALSE(store.Contains(Oid(raw))) << raw;
    EXPECT_TRUE(store.Get(Oid(raw)).status().IsNotFound()) << raw;
  }
  EXPECT_EQ(store.next_oid(), 11u);
  // A hole is refilled in place.
  ASSERT_TRUE(store.Insert(DbObject(Oid(4), "B")).ok());
  ASSERT_NE(store.Find(Oid(4)), nullptr);
  EXPECT_EQ(store.Find(Oid(4))->class_name(), "B");
  EXPECT_EQ(store.size(), 9u);
}

TEST(ObjectStoreTest, ForEachOidOrderOverHolesAcrossPages) {
  ObjectStore store;
  // Out of order, spanning several table pages, with whole pages empty.
  for (uint64_t raw : {900, 3, 2000, 255, 256, 1, 5000, 257}) {
    ASSERT_TRUE(store.Insert(DbObject(Oid(raw), "A")).ok());
  }
  ASSERT_TRUE(store.Remove(Oid(256)).ok());
  ASSERT_TRUE(store.Remove(Oid(2000)).ok());
  EXPECT_EQ(ForEachOids(store),
            (std::vector<uint64_t>{1, 3, 255, 257, 900, 5000}));
  EXPECT_EQ(Raw(store.DirectExtent("A")),
            (std::vector<uint64_t>{1, 3, 255, 257, 900, 5000}));
}

TEST(ObjectStoreTest, OidFarAboveWatermarkIsCorruption) {
  ObjectStore store;
  ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  const uint64_t far = uint64_t{1} << 62;
  Status s = store.Insert(DbObject(Oid(far), "A"));
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.next_oid(), 2u);
  EXPECT_EQ(store.RaiseNextOid(far).code(), StatusCode::kCorruption);
  EXPECT_EQ(store.next_oid(), 2u);
  EXPECT_EQ(store.CheckOidInRange(far).code(), StatusCode::kCorruption);
  // The bound is relative to the watermark, not absolute.
  const uint64_t edge = store.next_oid() + ObjectStore::kMaxOidGap;
  EXPECT_TRUE(store.CheckOidInRange(edge).ok());
  EXPECT_EQ(store.CheckOidInRange(edge + 1).code(), StatusCode::kCorruption);
  ASSERT_TRUE(store.RaiseNextOid(100).ok());
  EXPECT_EQ(store.next_oid(), 100u);
  ASSERT_TRUE(store.RaiseNextOid(50).ok());  // Never lowers.
  EXPECT_EQ(store.next_oid(), 100u);
}

TEST(ObjectStoreTest, HighestAddressableOidCostsOnePage) {
  ObjectStore store;
  // A snapshot header may name any watermark the table can address;
  // gaps below it come from deletes, so the gap rule does not bound it.
  ASSERT_TRUE(store.RaiseNextOid(ObjectStore::kMaxOid).ok());
  EXPECT_EQ(store.next_oid(), ObjectStore::kMaxOid);
  EXPECT_EQ(store.RaiseNextOid(ObjectStore::kMaxOid + 1).code(),
            StatusCode::kCorruption);
  const uint64_t top = ObjectStore::kMaxOid - 1;
  ASSERT_TRUE(store.Insert(DbObject(Oid(top), "A")).ok());
  EXPECT_EQ(store.page_count(), 1u);
  ASSERT_NE(store.Find(Oid(top)), nullptr);
  EXPECT_EQ(ForEachOids(store), (std::vector<uint64_t>{top}));
  Status past = store.Insert(DbObject(Oid(ObjectStore::kMaxOid), "A"));
  EXPECT_EQ(past.code(), StatusCode::kCorruption) << past.ToString();
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStoreTest, RemovingAPagesLastObjectFreesThePage) {
  constexpr uint64_t kSlots = ObjectStore::kPageSlots;
  ObjectStore store;
  // OIDs 1..5*kSlots fill pages 0..4 (page 0 has no OID 0) and start
  // page 5.
  for (uint64_t i = 0; i < 5 * kSlots; ++i) {
    ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  }
  EXPECT_EQ(store.page_count(), 6u);
  // Emptying pages 1..3 frees them; a page with one object left stays.
  for (uint64_t raw = kSlots; raw < 4 * kSlots; ++raw) {
    ASSERT_TRUE(store.Remove(Oid(raw)).ok()) << raw;
  }
  for (uint64_t raw = 1; raw < kSlots - 1; ++raw) {
    ASSERT_TRUE(store.Remove(Oid(raw)).ok()) << raw;
  }
  EXPECT_EQ(store.page_count(), 3u);
  EXPECT_EQ(store.size(), 5 * kSlots - 3 * kSlots - (kSlots - 2));
  for (uint64_t raw : {uint64_t{1}, kSlots, 2 * kSlots + 3, 4 * kSlots - 1}) {
    EXPECT_EQ(store.Find(Oid(raw)), nullptr) << raw;
    EXPECT_TRUE(store.Get(Oid(raw)).status().IsNotFound()) << raw;
  }
  ASSERT_NE(store.Find(Oid(kSlots - 1)), nullptr);
  ASSERT_NE(store.Find(Oid(4 * kSlots)), nullptr);
  EXPECT_EQ(store.DirectExtentSize("A"), store.size());
  // A freed page comes back on re-insert, with only the new object.
  ASSERT_TRUE(store.Insert(DbObject(Oid(2 * kSlots + 3), "B")).ok());
  EXPECT_EQ(store.page_count(), 4u);
  EXPECT_EQ(store.Find(Oid(2 * kSlots + 3))->class_name(), "B");
  EXPECT_EQ(store.Find(Oid(2 * kSlots + 4)), nullptr);
  // Removing everything frees every page.
  std::vector<uint64_t> left = ForEachOids(store);
  for (uint64_t raw : left) ASSERT_TRUE(store.Remove(Oid(raw)).ok()) << raw;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.page_count(), 0u);
  EXPECT_TRUE(ForEachOids(store).empty());
  EXPECT_EQ(store.next_oid(), 5 * kSlots + 1);
}

TEST(ObjectStoreTest, PagesFollowTheLiveObjectsUnderChurn) {
  ObjectStore store;
  // Create 200,000 objects, each deleted 1,000 creations later: the live
  // set stays at 1,000 objects while the OIDs run far ahead.
  constexpr uint64_t kLive = 1000;
  const size_t most_allowed = kLive / ObjectStore::kPageSlots + 2;
  size_t most_pages = 0;
  for (uint64_t i = 0; i < 200000; ++i) {
    Oid oid = store.AllocateOid();
    ASSERT_TRUE(store.Insert(DbObject(oid, "A")).ok());
    if (oid.raw() > kLive) {
      ASSERT_TRUE(store.Remove(Oid(oid.raw() - kLive)).ok());
    }
    most_pages = std::max(most_pages, store.page_count());
  }
  EXPECT_EQ(store.size(), kLive);
  // 1,000 consecutive OIDs span at most 1000 / kPageSlots + 2 pages.
  EXPECT_LE(most_pages, most_allowed);
  EXPECT_LE(store.page_count(), most_allowed);
}

TEST(ObjectStoreTest, Clear) {
  ObjectStore store;
  ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.next_oid(), 1u);
}

TEST(DbObjectTest, GetMissingAttr) {
  DbObject obj(Oid(1), "A");
  EXPECT_FALSE(obj.Get("x").ok());
  obj.Set("x", Value(1));
  EXPECT_TRUE(obj.Get("x").ok());
  obj.Unset("x");
  EXPECT_FALSE(obj.Has("x"));
}

std::vector<std::string> Names(const DbObject& obj) {
  std::vector<std::string> out;
  for (const auto& [name, value] : obj.attributes()) out.push_back(name);
  return out;
}

TEST(DbObjectTest, AttributesStaySortedThroughSetAndUnset) {
  DbObject obj(Oid(1), "A");
  for (const char* name : {"M", "B", "Z", "A", "Q"}) obj.Set(name, Value(name));
  EXPECT_EQ(Names(obj), (std::vector<std::string>{"A", "B", "M", "Q", "Z"}));
  // Overwrite keeps one entry per name.
  obj.Set("M", Value(42));
  EXPECT_EQ(obj.attributes().size(), 5u);
  ASSERT_NE(obj.Find("M"), nullptr);
  EXPECT_EQ(obj.Find("M")->as_int(), 42);
  EXPECT_EQ(obj.GetOr("M", Value()).as_int(), 42);
  // Unset in the middle, at either end, and of an absent name.
  obj.Unset("M");
  obj.Unset("A");
  obj.Unset("Z");
  obj.Unset("NOPE");
  EXPECT_EQ(Names(obj), (std::vector<std::string>{"B", "Q"}));
  EXPECT_FALSE(obj.Has("M"));
  EXPECT_EQ(obj.Find("M"), nullptr);
  EXPECT_TRUE(obj.Has("B"));
  EXPECT_TRUE(obj.Has("Q"));
  EXPECT_FALSE(obj.Has(""));
  EXPECT_TRUE(obj.Get("Z").status().IsNotFound());
  EXPECT_EQ(obj.GetOr("Z", Value(-1)).as_int(), -1);
  obj.Set("C", Value(3));
  EXPECT_EQ(Names(obj), (std::vector<std::string>{"B", "C", "Q"}));
  EXPECT_EQ(obj.ToString(), "A(oid:1){B: 'B', C: 3, Q: 'Q'}");
}

}  // namespace
}  // namespace sdms::oodb

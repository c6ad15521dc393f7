#include "oodb/object_store.h"

#include <gtest/gtest.h>

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
  // Enough inserts to rehash the table several times.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(store.Insert(DbObject(store.AllocateOid(), "A")).ok());
  }
  auto again = store.Get(first);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, ptr);
  EXPECT_EQ(ptr->oid(), first);
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

}  // namespace
}  // namespace sdms::oodb

#include "oodb/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "common/file_util.h"
#include "oodb/builtins.h"
#include "oodb/storage/serializer.h"
#include "oodb/storage/wal.h"

namespace sdms::oodb {
namespace {

std::unique_ptr<Database> OpenMem() {
  auto db = Database::Open(Database::Options{});
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

void DefineDocSchema(Database& db) {
  ASSERT_TRUE(RegisterBuiltins(db).ok());
  ClassDef para;
  para.name = "PARA";
  para.super = kObjectClass;
  para.attributes = {
      AttributeDef{"TEXT", ValueType::kString, Value()},
      AttributeDef{"YEAR", ValueType::kInt, Value()},
      AttributeDef{"SCORE", ValueType::kReal, Value()},
  };
  ASSERT_TRUE(db.schema().DefineClass(std::move(para)).ok());
}

TEST(DatabaseTest, CreateSetGet) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("hello")).ok());
  auto text = db->GetAttribute(*oid, "TEXT");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->as_string(), "hello");
  auto cls = db->ClassOf(*oid);
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(*cls, "PARA");
}

TEST(DatabaseTest, AbstractClassNotInstantiable) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  EXPECT_FALSE(db->CreateObject(kObjectClass).ok());
}

TEST(DatabaseTest, UndeclaredAttributeRejected) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  EXPECT_FALSE(db->SetAttribute(*oid, "NOPE", Value(1)).ok());
}

TEST(DatabaseTest, TypeMismatchRejected) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  EXPECT_TRUE(db->SetAttribute(*oid, "YEAR", Value(1994)).ok());
  EXPECT_FALSE(db->SetAttribute(*oid, "YEAR", Value("1994")).ok());
  // INT widens to REAL where REAL declared.
  EXPECT_TRUE(db->SetAttribute(*oid, "SCORE", Value(2)).ok());
  auto score = db->GetAttribute(*oid, "SCORE");
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(score->is_real());
}

TEST(DatabaseTest, DeleteObject) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->DeleteObject(*oid).ok());
  EXPECT_FALSE(db->GetObject(*oid).ok());
  EXPECT_FALSE(db->DeleteObject(*oid).ok());
}

TEST(DatabaseTest, ExtentWithSubclasses) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  ClassDef special;
  special.name = "SPECIALPARA";
  special.super = "PARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(special)).ok());
  ASSERT_TRUE(db->CreateObject("PARA").ok());
  ASSERT_TRUE(db->CreateObject("SPECIALPARA").ok());
  EXPECT_EQ(db->Extent("PARA").size(), 2u);
  EXPECT_EQ(db->Extent("PARA", /*include_subclasses=*/false).size(), 1u);
  EXPECT_EQ(db->Extent("SPECIALPARA").size(), 1u);
}

TEST(DatabaseTest, ExtentSizeMatchesExtentWithSubclasses) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  ClassDef special;
  special.name = "SPECIALPARA";
  special.super = "PARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(special)).ok());
  ClassDef rare;
  rare.name = "RAREPARA";
  rare.super = "SPECIALPARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(rare)).ok());
  // Interleave the classes so the merged extent must reorder parts.
  std::vector<Oid> created;
  for (const char* cls : {"SPECIALPARA", "PARA", "RAREPARA", "PARA",
                          "SPECIALPARA", "RAREPARA", "PARA"}) {
    auto oid = db->CreateObject(cls);
    ASSERT_TRUE(oid.ok());
    created.push_back(*oid);
  }
  ASSERT_TRUE(db->DeleteObject(created[3]).ok());
  for (const char* cls : {"PARA", "SPECIALPARA", "RAREPARA", "Object"}) {
    std::vector<Oid> extent = db->Extent(cls);
    EXPECT_EQ(db->ExtentSize(cls), extent.size()) << cls;
    EXPECT_TRUE(std::is_sorted(extent.begin(), extent.end())) << cls;
  }
  EXPECT_EQ(db->ExtentSize("PARA"), 6u);
  EXPECT_EQ(db->ExtentSize("SPECIALPARA"), 4u);
  EXPECT_EQ(db->ExtentSize("RAREPARA"), 2u);
  EXPECT_EQ(db->ExtentSize("NOSUCHCLASS"), 0u);
}

TEST(DatabaseTest, TransactionCommitGroupsUpdates) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  TxnId txn = db->Begin();
  auto a = db->CreateObject("PARA", txn);
  auto b = db->CreateObject("PARA", txn);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(db->Commit(txn).ok());
  EXPECT_EQ(db->Extent("PARA").size(), 2u);
}

TEST(DatabaseTest, AbortRollsBackCreate) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  TxnId txn = db->Begin();
  auto oid = db->CreateObject("PARA", txn);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->Abort(txn).ok());
  EXPECT_FALSE(db->GetObject(*oid).ok());
  EXPECT_TRUE(db->Extent("PARA").empty());
}

TEST(DatabaseTest, AbortRollsBackSetAttribute) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("before")).ok());
  TxnId txn = db->Begin();
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("after"), txn).ok());
  ASSERT_TRUE(db->Abort(txn).ok());
  EXPECT_EQ(db->GetAttribute(*oid, "TEXT")->as_string(), "before");
}

TEST(DatabaseTest, AbortRollsBackDelete) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("keep me")).ok());
  TxnId txn = db->Begin();
  ASSERT_TRUE(db->DeleteObject(*oid, txn).ok());
  ASSERT_TRUE(db->Abort(txn).ok());
  auto text = db->GetAttribute(*oid, "TEXT");
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text->as_string(), "keep me");
}

TEST(DatabaseTest, ConflictingWritersGetLockConflict) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  TxnId t1 = db->Begin();
  TxnId t2 = db->Begin();
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("t1"), t1).ok());
  Status s = db->SetAttribute(*oid, "TEXT", Value("t2"), t2);
  EXPECT_TRUE(s.IsLockConflict());
  ASSERT_TRUE(db->Commit(t1).ok());
  // After t1 releases, t2 can proceed.
  EXPECT_TRUE(db->SetAttribute(*oid, "TEXT", Value("t2"), t2).ok());
  ASSERT_TRUE(db->Commit(t2).ok());
  EXPECT_EQ(db->GetAttribute(*oid, "TEXT")->as_string(), "t2");
}

TEST(DatabaseTest, MethodInvocation) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->SetAttribute(*oid, "YEAR", Value(1994)).ok());
  auto v = db->Invoke(*oid, "getAttributeValue", {Value("YEAR")});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Equals(Value(1994)));
  auto cls = db->Invoke(*oid, "className", {});
  ASSERT_TRUE(cls.ok());
  EXPECT_EQ(cls->as_string(), "PARA");
  EXPECT_FALSE(db->Invoke(*oid, "noSuchMethod", {}).ok());
}

MethodFn Returns(const char* tag) {
  return [tag](const MethodContext&, Oid,
               const std::vector<Value>&) -> StatusOr<Value> {
    return Value(tag);
  };
}

TEST(DatabaseTest, ResolveWalksThreeLevelChain) {
  auto db = OpenMem();
  DefineDocSchema(*db);  // Object <- PARA
  ClassDef mid;
  mid.name = "MIDPARA";
  mid.super = "PARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(mid)).ok());
  ClassDef leaf;
  leaf.name = "LEAFPARA";
  leaf.super = "MIDPARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(leaf)).ok());
  MethodRegistry& methods = db->methods();
  methods.Register("PARA", "kind", Returns("para"));
  methods.Register("MIDPARA", "depth", Returns("mid"));
  auto leaf_oid = db->CreateObject("LEAFPARA");
  ASSERT_TRUE(leaf_oid.ok());
  // Inherited across two levels, one level, and from the root builtins.
  EXPECT_EQ(db->Invoke(*leaf_oid, "kind", {})->as_string(), "para");
  EXPECT_EQ(db->Invoke(*leaf_oid, "depth", {})->as_string(), "mid");
  EXPECT_EQ(db->Invoke(*leaf_oid, "className", {})->as_string(), "LEAFPARA");
  auto para_oid = db->CreateObject("PARA");
  ASSERT_TRUE(para_oid.ok());
  // Methods never leak down the chain.
  EXPECT_FALSE(db->Invoke(*para_oid, "depth", {}).ok());
  EXPECT_TRUE(methods.Has(db->schema(), "LEAFPARA", "kind"));
  EXPECT_FALSE(methods.Has(db->schema(), "PARA", "depth"));
  EXPECT_FALSE(methods.Has(db->schema(), "NOSUCHCLASS", "kind"));

  // A subclass override shadows the inherited implementation.
  methods.Register("LEAFPARA", "kind", Returns("leaf"));
  EXPECT_EQ(db->Invoke(*leaf_oid, "kind", {})->as_string(), "leaf");
  EXPECT_EQ(db->Invoke(*para_oid, "kind", {})->as_string(), "para");
}

TEST(DatabaseTest, ResolveOverrideInPlace) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  db->methods().Register("PARA", "kind", Returns("v1"));
  auto oid = db->CreateObject("PARA");
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(db->Invoke(*oid, "kind", {})->as_string(), "v1");
  db->methods().Register("PARA", "kind", Returns("v2"));
  EXPECT_EQ(db->Invoke(*oid, "kind", {})->as_string(), "v2");
}

TEST(DatabaseTest, ResolveForSubclassDefinedAfterRegistration) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  db->methods().Register("PARA", "kind", Returns("para"));
  ClassDef late;
  late.name = "LATEPARA";
  late.super = "PARA";
  ASSERT_TRUE(db->schema().DefineClass(std::move(late)).ok());
  auto oid = db->CreateObject("LATEPARA");
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(db->Invoke(*oid, "kind", {})->as_string(), "para");
}

TEST(DatabaseTest, IndexLookupAndMaintenance) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  auto a = db->CreateObject("PARA");
  auto b = db->CreateObject("PARA");
  ASSERT_TRUE(db->SetAttribute(*a, "YEAR", Value(1994)).ok());
  ASSERT_TRUE(db->SetAttribute(*b, "YEAR", Value(1995)).ok());
  ASSERT_TRUE(db->CreateIndex("PARA", "YEAR").ok());
  EXPECT_TRUE(db->HasIndex("PARA", "YEAR"));

  auto hits = db->IndexLookup("PARA", "YEAR", Value(1994));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], *a);

  // Updates maintain the index.
  ASSERT_TRUE(db->SetAttribute(*a, "YEAR", Value(1996)).ok());
  EXPECT_TRUE(db->IndexLookup("PARA", "YEAR", Value(1994))->empty());
  EXPECT_EQ(db->IndexLookup("PARA", "YEAR", Value(1996))->size(), 1u);

  // Deletes remove from the index.
  ASSERT_TRUE(db->DeleteObject(*b).ok());
  EXPECT_TRUE(db->IndexLookup("PARA", "YEAR", Value(1995))->empty());

  // New objects enter the index.
  auto c = db->CreateObject("PARA");
  ASSERT_TRUE(db->SetAttribute(*c, "YEAR", Value(1994)).ok());
  EXPECT_EQ(db->IndexLookup("PARA", "YEAR", Value(1994))->size(), 1u);
}

class RecordingListener : public UpdateListener {
 public:
  struct Event {
    UpdateKind kind;
    Oid oid;
    std::string cls;
    std::string attr;
    uint64_t seq;
  };
  void OnUpdate(UpdateKind kind, Oid oid, const std::string& cls,
                const std::string& attr, uint64_t seq) override {
    events.push_back(Event{kind, oid, cls, attr, seq});
  }
  std::vector<Event> events;
};

TEST(DatabaseTest, ListenersFireOnCommitOnly) {
  auto db = OpenMem();
  DefineDocSchema(*db);
  RecordingListener listener;
  db->AddUpdateListener(&listener);

  TxnId txn = db->Begin();
  auto oid = db->CreateObject("PARA", txn);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("x"), txn).ok());
  EXPECT_TRUE(listener.events.empty());  // Nothing until commit.
  ASSERT_TRUE(db->Commit(txn).ok());
  ASSERT_EQ(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0].kind, UpdateKind::kInsert);
  EXPECT_EQ(listener.events[1].kind, UpdateKind::kModify);
  EXPECT_EQ(listener.events[1].attr, "TEXT");
  // Commit assigns a strictly increasing global sequence number.
  EXPECT_GT(listener.events[0].seq, 0u);
  EXPECT_GT(listener.events[1].seq, listener.events[0].seq);

  // Aborted transactions fire nothing.
  listener.events.clear();
  TxnId txn2 = db->Begin();
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("y"), txn2).ok());
  ASSERT_TRUE(db->Abort(txn2).ok());
  EXPECT_TRUE(listener.events.empty());

  db->RemoveUpdateListener(&listener);
  ASSERT_TRUE(db->SetAttribute(*oid, "TEXT", Value("z")).ok());
  EXPECT_TRUE(listener.events.empty());
}

class PersistentDatabaseTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/sdms_db_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(PersistentDatabaseTest, WalRecovery) {
  Oid oid;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    auto created = (*db)->CreateObject("PARA");
    ASSERT_TRUE(created.ok());
    oid = *created;
    ASSERT_TRUE((*db)->SetAttribute(oid, "TEXT", Value("durable")).ok());
    // No checkpoint: recovery must come from the WAL alone.
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    auto text = (*db)->GetAttribute(oid, "TEXT");
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(text->as_string(), "durable");
  }
}

TEST_F(PersistentDatabaseTest, UncommittedTailNotRecovered) {
  Oid committed, uncommitted;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    auto a = (*db)->CreateObject("PARA");
    ASSERT_TRUE(a.ok());
    committed = *a;
    // Open a transaction and leave it unfinished: its records never
    // reach the WAL, simulating a crash mid-transaction.
    TxnId txn = (*db)->Begin();
    auto b = (*db)->CreateObject("PARA", txn);
    ASSERT_TRUE(b.ok());
    uncommitted = *b;
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    EXPECT_TRUE((*db)->GetObject(committed).ok());
    EXPECT_FALSE((*db)->GetObject(uncommitted).ok());
  }
}

TEST_F(PersistentDatabaseTest, CheckpointAndRecover) {
  Oid oid;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    auto created = (*db)->CreateObject("PARA");
    ASSERT_TRUE(created.ok());
    oid = *created;
    ASSERT_TRUE((*db)->SetAttribute(oid, "YEAR", Value(1994)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Post-checkpoint update goes to the fresh WAL.
    ASSERT_TRUE((*db)->SetAttribute(oid, "YEAR", Value(1995)).ok());
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    auto year = (*db)->GetAttribute(oid, "YEAR");
    ASSERT_TRUE(year.ok());
    EXPECT_TRUE(year->Equals(Value(1995)));
    // OID allocation resumes above recovered objects.
    auto fresh = (*db)->CreateObject("PARA");
    ASSERT_TRUE(fresh.ok());
    EXPECT_GT(fresh->raw(), oid.raw());
  }
}

TEST_F(PersistentDatabaseTest, SnapshotRoundTripIsByteIdentical) {
  const std::string snapshot = dir_ + "/snapshot.db";
  std::string first;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    std::vector<Oid> oids;
    for (int i = 0; i < 20; ++i) {
      auto oid = (*db)->CreateObject("PARA");
      ASSERT_TRUE(oid.ok());
      ASSERT_TRUE((*db)->SetAttribute(*oid, "YEAR", Value(1990 + i)).ok());
      oids.push_back(*oid);
    }
    for (int i : {3, 11, 17}) ASSERT_TRUE((*db)->DeleteObject(oids[i]).ok());
    // An aborted delete re-inserts its object behind newer ones.
    TxnId txn = (*db)->Begin();
    ASSERT_TRUE((*db)->DeleteObject(oids[5], txn).ok());
    ASSERT_TRUE((*db)->CreateObject("PARA", txn).ok());
    ASSERT_TRUE((*db)->Abort(txn).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto bytes = ReadFile(snapshot);
    ASSERT_TRUE(bytes.ok());
    first = *bytes;
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    EXPECT_EQ((*db)->ExtentSize("PARA"), 17u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    auto bytes = ReadFile(snapshot);
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, first);
  }
}

TEST_F(PersistentDatabaseTest, ReplayOfCheckpointedWalRecreatesInPlace) {
  // A crash between a checkpoint's snapshot rename and its WAL
  // truncation leaves a WAL whose every record the snapshot already
  // holds: replay then creates objects at OIDs that exist.
  const std::string wal = dir_ + "/wal.log";
  Oid a, b;
  std::string saved_wal;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    a = *(*db)->CreateObject("PARA");
    b = *(*db)->CreateObject("PARA");
    ASSERT_TRUE((*db)->SetAttribute(a, "YEAR", Value(1994)).ok());
    ASSERT_TRUE((*db)->SetAttribute(b, "TEXT", Value("kept")).ok());
    ASSERT_TRUE((*db)->SetAttribute(a, "YEAR", Value(1996)).ok());
  }
  auto bytes = ReadFile(wal);
  ASSERT_TRUE(bytes.ok());
  saved_wal = *bytes;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  ASSERT_TRUE(WriteFileAtomic(wal, saved_wal).ok());
  auto db = Database::Open(Database::Options{dir_, false});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  DefineDocSchema(**db);
  EXPECT_EQ((*db)->ExtentSize("PARA"), 2u);
  EXPECT_EQ((*db)->store().size(), 2u);
  EXPECT_TRUE((*db)->GetAttribute(a, "YEAR")->Equals(Value(1996)));
  EXPECT_EQ((*db)->GetAttribute(b, "TEXT")->as_string(), "kept");
  EXPECT_TRUE((*db)->GetAttribute(b, "YEAR")->is_null());
  auto fresh = (*db)->CreateObject("PARA");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->raw(), b.raw());
}

TEST_F(PersistentDatabaseTest, WalCreateFarAboveWatermarkIsCorruption) {
  ASSERT_TRUE(MakeDirs(dir_).ok());
  {
    Wal wal;
    ASSERT_TRUE(wal.Open(dir_ + "/wal.log").ok());
    Encoder create;
    create.PutU8(static_cast<uint8_t>(WalRecordType::kCreateObject));
    create.PutU64(1);
    create.PutU64(uint64_t{1} << 62);
    create.PutString("PARA");
    ASSERT_TRUE(wal.Append(create.data()).ok());
    Encoder commit;
    commit.PutU8(static_cast<uint8_t>(WalRecordType::kCommit));
    commit.PutU64(1);
    ASSERT_TRUE(wal.Append(commit.data()).ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto db = Database::Open(Database::Options{dir_, false});
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption)
      << db.status().ToString();
}

/// Writes a CRC-framed v2 snapshot with watermark `next_oid` holding
/// one PARA object per OID in `oids`.
void WriteSnapshot(const std::string& dir, uint64_t next_oid,
                   const std::vector<uint64_t>& oids) {
  ASSERT_TRUE(MakeDirs(dir).ok());
  Encoder enc;
  enc.PutU32(0x53444d54);  // v2 magic
  enc.PutU64(next_oid);
  enc.PutU64(1);  // next update seq
  enc.PutU64(oids.size());
  for (uint64_t raw : oids) enc.PutObject(DbObject(Oid(raw), "PARA"));
  std::string body = enc.Release();
  uint32_t crc = Crc32(body);
  std::string file;
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  ASSERT_TRUE(WriteFileAtomic(dir + "/snapshot.db", file + body).ok());
}

TEST_F(PersistentDatabaseTest, SnapshotOidFarAboveWatermarkIsCorruption) {
  const uint64_t far = uint64_t{1} << 62;
  // The control: a well-formed snapshot of the same shape opens.
  WriteSnapshot(dir_, 4, {1, 3});
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->store().size(), 2u);
    EXPECT_EQ((*db)->store().next_oid(), 4u);
  }
  std::filesystem::remove_all(dir_);
  // An object naming OID 2^62, with a header watermark to match.
  WriteSnapshot(dir_, far + 1, {1, far});
  auto object = Database::Open(Database::Options{dir_, false});
  ASSERT_FALSE(object.ok());
  EXPECT_EQ(object.status().code(), StatusCode::kCorruption)
      << object.status().ToString();
  std::filesystem::remove_all(dir_);
  // A header watermark of 2^62 alone would size the table at the next
  // allocation.
  WriteSnapshot(dir_, far, {1});
  auto header = Database::Open(Database::Options{dir_, false});
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kCorruption)
      << header.status().ToString();
}

TEST_F(PersistentDatabaseTest, SnapshotWithDeletedOidGapsOpens) {
  const uint64_t gap = uint64_t{1} << 24;
  // Everything below OID 2^24 + 10 was deleted before the checkpoint.
  WriteSnapshot(dir_, gap + 11, {gap + 10});
  Oid created;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    DefineDocSchema(**db);
    EXPECT_EQ((*db)->store().size(), 1u);
    EXPECT_EQ((*db)->store().next_oid(), gap + 11);
    ASSERT_NE((*db)->store().Find(Oid(gap + 10)), nullptr);
    // New objects continue from the header, and survive WAL replay.
    auto fresh = (*db)->CreateObject("PARA");
    ASSERT_TRUE(fresh.ok());
    created = *fresh;
    EXPECT_EQ(created.raw(), gap + 11);
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->store().size(), 2u);
    EXPECT_NE((*db)->store().Find(created), nullptr);
  }
  std::filesystem::remove_all(dir_);
  // The newest 2^24 OIDs were all deleted before the checkpoint.
  WriteSnapshot(dir_, gap + 100, {1, 2});
  auto db = Database::Open(Database::Options{dir_, false});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->store().size(), 2u);
  EXPECT_EQ((*db)->store().next_oid(), gap + 100);
}

TEST_F(PersistentDatabaseTest, SnapshotObjectAtOrAboveItsWatermarkIsCorruption) {
  for (uint64_t raw : {uint64_t{10}, uint64_t{11}, uint64_t{1000}}) {
    WriteSnapshot(dir_, 10, {1, raw});
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_FALSE(db.ok()) << raw;
    EXPECT_EQ(db.status().code(), StatusCode::kCorruption)
        << db.status().ToString();
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(PersistentDatabaseTest, SyncCommitsDurable) {
  Oid oid;
  {
    auto db = Database::Open(Database::Options{dir_, /*sync_commits=*/true});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    oid = *(*db)->CreateObject("PARA");
    ASSERT_TRUE((*db)->SetAttribute(oid, "TEXT", Value("fsynced")).ok());
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    EXPECT_EQ((*db)->GetAttribute(oid, "TEXT")->as_string(), "fsynced");
  }
}

TEST(InMemoryDatabaseTest, CheckpointRequiresDataDir) {
  auto db = Database::Open(Database::Options{});
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->Checkpoint().ok());
}

TEST_F(PersistentDatabaseTest, DeleteSurvivesRecovery) {
  Oid keep, gone;
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    keep = *(*db)->CreateObject("PARA");
    gone = *(*db)->CreateObject("PARA");
    ASSERT_TRUE((*db)->DeleteObject(gone).ok());
  }
  {
    auto db = Database::Open(Database::Options{dir_, false});
    ASSERT_TRUE(db.ok());
    DefineDocSchema(**db);
    EXPECT_TRUE((*db)->GetObject(keep).ok());
    EXPECT_FALSE((*db)->GetObject(gone).ok());
  }
}

}  // namespace
}  // namespace sdms::oodb

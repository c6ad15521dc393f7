#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/fault/fault.h"
#include "common/file_util.h"
#include "irs/engine.h"
#include "oodb/storage/wal.h"

namespace sdms {
namespace {

class CrashRecoveryTest : public testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::Instance().Clear();
    fault::FaultRegistry::Instance().SetSeed(42);
    dir_ = testing::TempDir() + "/sdms_crash_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(MakeDirs(dir_).ok());
  }
  void TearDown() override {
    fault::FaultRegistry::Instance().Clear();
    std::filesystem::remove_all(dir_);
  }

  void ArmCrash(const std::string& point, uint64_t max_fires = 1) {
    fault::FaultRule rule;
    rule.kind = fault::FaultKind::kCrash;
    rule.max_fires = max_fires;
    fault::FaultRegistry::Instance().Arm(point, rule);
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, ChecksumEnvelopeRoundTrip) {
  std::string payload = "hello\tworld\nwith\0byte";
  payload.resize(21);
  auto stripped = StripChecksumEnvelope(WithChecksumEnvelope(payload));
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(*stripped, payload);
  // Every writer envelopes its files, so data without the magic —
  // empty or never enveloped — is corruption, not a format to accept.
  EXPECT_EQ(StripChecksumEnvelope("plain old file contents").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(StripChecksumEnvelope("").status().code(),
            StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, ChecksumEnvelopeDetectsCorruptionAndTruncation) {
  std::string enveloped = WithChecksumEnvelope("the quick brown fox");
  std::string flipped = enveloped;
  flipped[flipped.size() - 3] ^= 0x01;
  EXPECT_EQ(StripChecksumEnvelope(flipped).status().code(),
            StatusCode::kCorruption);
  std::string torn = enveloped.substr(0, enveloped.size() - 4);
  EXPECT_EQ(StripChecksumEnvelope(torn).status().code(),
            StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, CrashBeforeRenameLeavesOldContentIntact) {
  std::string path = dir_ + "/state.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "version 1").ok());

  ArmCrash("file.atomic_write.before_rename");
  EXPECT_EQ(WriteFileAtomic(path, "version 2").code(), StatusCode::kAborted);
  // Simulated power cut between temp write and rename: the destination
  // still holds the old version (the temp file may linger, as after a
  // real crash).
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "version 1");

  // The "restarted process" writes again and wins.
  ASSERT_TRUE(WriteFileAtomic(path, "version 2").ok());
  EXPECT_EQ(*ReadFile(path), "version 2");
}

TEST_F(CrashRecoveryTest, CrashAfterRenameIsDurable) {
  std::string path = dir_ + "/state.txt";
  ArmCrash("file.atomic_write.after_rename");
  // The caller sees the crash, but the rename already happened: the
  // new content is on disk — exactly the "committed then died" case.
  EXPECT_EQ(WriteFileAtomic(path, "survived").code(), StatusCode::kAborted);
  auto data = ReadFile(path);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "survived");
}

TEST_F(CrashRecoveryTest, IoErrorOnAtomicWriteLeavesNoTempFile) {
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.max_fires = 1;
  fault::FaultRegistry::Instance().Arm("file.atomic_write", rule);
  std::string path = dir_ + "/state.txt";
  EXPECT_EQ(WriteFileAtomic(path, "x").code(), StatusCode::kIoError);
  // No debris: every non-crash error path removes the temp file.
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 0u);
}

TEST_F(CrashRecoveryTest, IrsEngineCrashDuringSaveThenReload) {
  std::string irs_dir = dir_ + "/irs";
  {
    irs::IrsEngine engine;
    auto coll = engine.CreateCollection("docs", {}, "inquery");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:1", "first version").ok());
    ASSERT_TRUE(engine.SaveTo(irs_dir).ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:2", "second document").ok());
    // Crash while writing the index file of the second save: the old
    // snapshot must stay loadable.
    ArmCrash("file.atomic_write.before_rename");
    EXPECT_EQ(engine.SaveTo(irs_dir).code(), StatusCode::kAborted);
  }
  {
    irs::IrsEngine engine;
    ASSERT_TRUE(engine.LoadFrom(irs_dir).ok());
    auto coll = engine.GetCollection("docs");
    ASSERT_TRUE(coll.ok());
    EXPECT_TRUE((*coll)->HasDocument("oid:1"));
    EXPECT_FALSE((*coll)->HasDocument("oid:2"));  // pre-crash snapshot
  }
}

TEST_F(CrashRecoveryTest, TornIndexFileIsCorruptionNotSilentBadState) {
  std::string irs_dir = dir_ + "/irs";
  {
    irs::IrsEngine engine;
    auto coll = engine.CreateCollection("docs", {}, "inquery");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:1", "some indexed text").ok());
    ASSERT_TRUE(engine.SaveTo(irs_dir).ok());
  }
  // Flip one byte in the checksummed index file.
  std::string idx_path = irs_dir + "/docs.idx";
  auto raw = ReadFile(idx_path);
  ASSERT_TRUE(raw.ok());
  std::string damaged = *raw;
  damaged[damaged.size() / 2] ^= 0x10;
  ASSERT_TRUE(WriteFileAtomic(idx_path, damaged).ok());
  irs::IrsEngine engine;
  EXPECT_EQ(engine.LoadFrom(irs_dir).code(), StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, EmptyOrUnenvelopedSnapshotFilesAreCorruption) {
  std::string irs_dir = dir_ + "/irs";
  {
    irs::IrsEngine engine;
    auto coll = engine.CreateCollection("docs", {}, "inquery");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->AddDocument("oid:1", "some indexed text").ok());
    ASSERT_TRUE(engine.SaveTo(irs_dir).ok());
  }
  const std::string manifest_path = irs_dir + "/collections.manifest";
  const std::string idx_path = irs_dir + "/docs.idx";
  auto manifest = ReadFile(manifest_path);
  auto idx = ReadFile(idx_path);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(idx.ok());
  auto expect_load = [&](StatusCode code) {
    irs::IrsEngine engine;
    EXPECT_EQ(engine.LoadFrom(irs_dir).code(), code);
  };
  expect_load(StatusCode::kOk);

  // A zero-byte manifest must not load as "no collections".
  ASSERT_TRUE(WriteFileAtomic(manifest_path, "").ok());
  expect_load(StatusCode::kCorruption);
  // Nor may an unenveloped one that parses as a valid manifest.
  ASSERT_TRUE(WriteFileAtomic(manifest_path, "docs\tinquery\n").ok());
  expect_load(StatusCode::kCorruption);
  ASSERT_TRUE(WriteFileAtomic(manifest_path, *manifest).ok());

  ASSERT_TRUE(WriteFileAtomic(idx_path, "").ok());
  expect_load(StatusCode::kCorruption);
  ASSERT_TRUE(WriteFileAtomic(idx_path, *idx).ok());
  expect_load(StatusCode::kOk);

  std::string exchange = dir_ + "/result.txt";
  ASSERT_TRUE(WriteFileAtomic(exchange, "").ok());
  EXPECT_EQ(irs::IrsEngine::ParseResultFile(exchange).status().code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(WriteFileAtomic(exchange, "oid:1\t0.5\n").ok());
  EXPECT_EQ(irs::IrsEngine::ParseResultFile(exchange).status().code(),
            StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, CorruptExchangeFileIsDetected) {
  irs::IrsEngine engine;
  auto coll = engine.CreateCollection("c", {}, "inquery");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->AddDocument("oid:7", "exchange payload").ok());
  std::string path = dir_ + "/result.txt";
  ASSERT_TRUE(engine.SearchToFile("c", "exchange", path).ok());
  // Uncorrupted parse succeeds...
  ASSERT_TRUE(irs::IrsEngine::ParseResultFile(path).ok());
  // ...but with a corrupt fault on the read path the checksum trips.
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kCorrupt;
  fault::FaultRegistry::Instance().Arm("irs.exchange.read", rule);
  EXPECT_EQ(irs::IrsEngine::ParseResultFile(path).status().code(),
            StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, WalReplayStopsAtCrashTornTail) {
  std::string wal_path = dir_ + "/log.wal";
  {
    oodb::Wal wal;
    ASSERT_TRUE(wal.Open(wal_path).ok());
    ASSERT_TRUE(wal.Append("rec1").ok());
    ASSERT_TRUE(wal.Append("rec2").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // A torn tail (half a frame, as after a crash mid-write).
  std::FILE* f = std::fopen(wal_path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char garbage[] = "\x04\x00\x00\x00gar";
  std::fwrite(garbage, 1, sizeof(garbage) - 1, f);
  std::fclose(f);

  std::vector<std::string> replayed;
  ASSERT_TRUE(oodb::Wal::Replay(wal_path, [&](std::string_view p) {
                replayed.push_back(std::string(p));
                return Status::OK();
              }).ok());
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0], "rec1");
  EXPECT_EQ(replayed[1], "rec2");
}

TEST_F(CrashRecoveryTest, WalFaultPointsSurface) {
  std::string wal_path = dir_ + "/log.wal";
  oodb::Wal wal;
  ASSERT_TRUE(wal.Open(wal_path).ok());
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kIoError;
  rule.max_fires = 1;
  fault::FaultRegistry::Instance().Arm("wal.sync", rule);
  ASSERT_TRUE(wal.Append("rec").ok());
  EXPECT_EQ(wal.Sync().code(), StatusCode::kIoError);
  // Fault exhausted: the next sync succeeds (commit retry).
  EXPECT_TRUE(wal.Sync().ok());
}

}  // namespace
}  // namespace sdms

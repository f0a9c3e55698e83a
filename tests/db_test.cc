#include <gtest/gtest.h>

#include "common/random.h"
#include "db/database.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 64;
    return options;
  }
  TempDir dir_;
};

TEST_F(DatabaseTest, OpenCloseReopen) {
  Oid oid;
  {
    Database db;
    ASSERT_OK(db.Open(Options()));
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("survives restart")));
    ASSERT_OK(session->Commit().status());
    session.reset();
    ASSERT_OK(db.Close());
  }
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "survives restart");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, DoubleOpenRejected) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  EXPECT_TRUE(db.Open(Options()).IsInvalidArgument());
}

TEST_F(DatabaseTest, MissingDirRejected) {
  Database db;
  DatabaseOptions options;
  EXPECT_TRUE(db.Open(options).IsInvalidArgument());
}

TEST_F(DatabaseTest, CommittedDataSurvivesCrash) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid oid;
  {
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("committed before crash")));
    ASSERT_OK(session->Commit().status());
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "committed before crash");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, UncommittedDataVanishesOnCrash) {
  // The no-overwrite commit protocol: a crash before the commit record
  // leaves the transaction unrecorded, hence aborted, hence invisible.
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  Oid committed_oid;
  {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(committed_oid,
                         db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, committed_oid, true));
    ASSERT_OK(fd->Write(Slice("stable")));
    ASSERT_OK(session->Commit().status());
  }
  Oid doomed_oid;
  {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(doomed_oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, doomed_oid, true));
    ASSERT_OK(fd->Write(Slice("in flight")));
    // Force dirty pages out (simulating eviction before commit)...
    ASSERT_OK(db.pool().FlushAll());
    // ...then crash WITHOUT committing.
    session->Abandon();
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  Transaction* txn = session->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists,
                       db.large_objects().Exists(txn, doomed_oid));
  EXPECT_FALSE(exists);  // flushed-but-uncommitted tuples invisible
  ASSERT_OK_AND_ASSIGN(exists, db.large_objects().Exists(txn, committed_oid));
  EXPECT_TRUE(exists);
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, CrashMidTransactionRollsBackLoWrites) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  Oid oid;
  {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("original")));
    ASSERT_OK(session->Commit().status());
  }
  {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("CLOBBER!")));
    ASSERT_OK(db.pool().FlushAll());  // even if pages reached disk...
    session->Abandon();
  }
  ASSERT_OK(db.SimulateCrashAndReopen());
  Transaction* txn = session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db.large_objects().Open(txn, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "original");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, TimeTravelSurvivesRestart) {
  Oid oid;
  CommitTime v1_time;
  {
    Database db;
    ASSERT_OK(db.Open(Options()));
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("v1")));
    ASSERT_OK_AND_ASSIGN(v1_time, session->Commit());
    session->Begin();
    ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("v2")));
    ASSERT_OK(session->Commit().status());
    session.reset();
    ASSERT_OK(db.Close());
  }
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->BeginAsOf(v1_time);
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(16));
  EXPECT_EQ(Slice(data).ToString(), "v1");
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, OidsNeverReusedAfterCrash) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid before, session->CreateLo(LoSpec{}));
  ASSERT_OK(session->Commit().status());
  ASSERT_OK(db.SimulateCrashAndReopen());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid after, session->CreateLo(LoSpec{}));
  EXPECT_GT(after, before);
  ASSERT_OK(session->Commit().status());
}

TEST_F(DatabaseTest, WormStorageManagerUsableForLargeObjects) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  LoSpec spec;
  spec.smgr = kSmgrWorm;
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  ASSERT_OK(fd->Write(Slice("on the jukebox")));
  ASSERT_OK(session->Commit().status());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "on the jukebox");
  EXPECT_GT(db.Stats().Value("smgr.worm.optical_writes"), 0u);
  ASSERT_OK(session->Abort());
}

TEST_F(DatabaseTest, MainMemoryStorageManagerUsable) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  session->Begin();
  LoSpec spec;
  spec.smgr = kSmgrMemory;
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  ASSERT_OK(fd->Write(Slice("in nvram")));
  ASSERT_OK(session->Commit().status());
  session->Begin();
  ASSERT_OK_AND_ASSIGN(fd, session->OpenLo(oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "in nvram");
  ASSERT_OK(session->Abort());
}

// Crash-consistency property test: random transactions, random crash
// points; the database must always reopen to exactly the last committed
// state.
class CrashFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashFuzz, AlwaysRecoversToCommittedState) {
  pglo::testing::TempDir dir;
  DatabaseOptions options;
  options.dir = dir.Sub("db");
  options.charge_devices = false;
  options.buffer_pool_frames = 64;
  Database db;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();

  pglo::Random rng(GetParam());
  Oid oid;
  Bytes committed;  // reference of the last committed object state
  {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db.large_objects().Create(txn, LoSpec{}));
    ASSERT_OK(session->Commit().status());
  }

  for (int round = 0; round < 15; ++round) {
    Transaction* txn = session->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, oid));
    Bytes staged = committed;
    int writes = 1 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < writes; ++i) {
      uint64_t off = rng.Uniform(40'000);
      Bytes data = rng.RandomBytes(rng.Range(100, 9'000));
      ASSERT_OK(lo->Write(txn, off, Slice(data)));
      if (staged.size() < off + data.size()) {
        staged.resize(off + data.size(), 0);
      }
      std::memcpy(staged.data() + off, data.data(), data.size());
    }
    switch (rng.Uniform(3)) {
      case 0:  // commit, then maybe crash after
        ASSERT_OK(session->Commit().status());
        committed = std::move(staged);
        if (rng.OneInHundred(50)) {
          ASSERT_OK(db.SimulateCrashAndReopen());
        }
        break;
      case 1:  // abort
        ASSERT_OK(session->Abort());
        break;
      case 2:  // crash mid-transaction (sometimes with pages flushed)
        if (rng.OneInHundred(50)) {
          ASSERT_OK(db.pool().FlushAll());
        }
        session->Abandon();
        ASSERT_OK(db.SimulateCrashAndReopen());
        break;
    }
    // Verify committed state after every round.
    Transaction* check = session->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo2, db.large_objects().Instantiate(check, oid));
    ASSERT_OK_AND_ASSIGN(uint64_t size, lo2->Size(check));
    ASSERT_EQ(size, committed.size()) << "round " << round;
    if (size > 0) {
      Bytes got(size);
      ASSERT_OK_AND_ASSIGN(size_t n, lo2->Read(check, 0, size, got.data()));
      ASSERT_EQ(n, size);
      ASSERT_EQ(got, committed) << "round " << round;
    }
    ASSERT_OK(session->Abort());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashFuzz,
                         ::testing::Values(21, 42, 84, 168, 336));

TEST_F(DatabaseTest, SimulatedTimeAdvancesWithCharging) {
  DatabaseOptions options = Options();
  options.charge_devices = true;
  Database db;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(LoSpec{}));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
  Bytes data(100'000, 1);
  ASSERT_OK(fd->Write(Slice(data)));
  ASSERT_OK(session->Commit().status());
  EXPECT_GT(db.clock().NowNanos(), 0u);
  EXPECT_GT(db.stats_registry()->histogram("device.disk.write_ns")->count(),
            0u);
}

}  // namespace
}  // namespace pglo

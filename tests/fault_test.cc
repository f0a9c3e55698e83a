// Unit tests for the fault-injection layer: tick semantics, torn writes
// and appends, transient bursts, the retry policy, the storage-manager
// decorator, and end-to-end corruption detection through the checksum
// path.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstring>
#include <memory>

#include "db/check.h"
#include "db/database.h"
#include "device/sim_clock.h"
#include "fault/fault_injector.h"
#include "fault/faulty_smgr.h"
#include "fault/retry.h"
#include "smgr/disk_smgr.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

TEST(FaultInjectorTest, DisarmedPassesThrough) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed());
  FaultInjector::WriteOutcome w = inj.OnWrite("smgr.disk", 4);
  EXPECT_OK(w.status);
  EXPECT_EQ(w.applied, 4u);
  EXPECT_FALSE(w.corrupt);
  EXPECT_OK(inj.OnRead("smgr.disk", 4));
  FaultInjector::AppendOutcome a = inj.OnAppend("clog", 16);
  EXPECT_OK(a.status);
  EXPECT_EQ(a.applied, 16u);
  EXPECT_EQ(inj.writes_seen(), 0u);
}

TEST(FaultInjectorTest, CrashAtNthWriteCountsBlocks) {
  FaultInjector inj;
  FaultPlan plan;
  plan.crash_after_writes = 3;
  plan.torn_writes = false;
  inj.Arm(plan);
  // Two blocks: ticks 1-2, no crash.
  FaultInjector::WriteOutcome w = inj.OnWrite("a", 2);
  EXPECT_OK(w.status);
  EXPECT_EQ(w.applied, 2u);
  // Two more blocks: the crash lands on tick 3, inside this call. With
  // torn writes off the whole run is atomic — nothing applied.
  w = inj.OnWrite("a", 2);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(w.status));
  EXPECT_EQ(w.applied, 0u);
  EXPECT_TRUE(inj.crashed());
  // Everything afterwards fails: the machine is off.
  w = inj.OnWrite("b", 1);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(w.status));
  EXPECT_EQ(w.applied, 0u);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(inj.OnRead("a", 1)));
  FaultInjector::AppendOutcome a = inj.OnAppend("clog", 16);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(a.status));
  EXPECT_EQ(a.applied, 0u);
}

TEST(FaultInjectorTest, TornRunAppliesBlockPrefix) {
  FaultInjector inj;
  FaultPlan plan;
  plan.crash_after_writes = 3;
  plan.torn_writes = true;
  inj.Arm(plan);
  // Crash on the 3rd block of a 5-block run: exactly the 2 blocks before
  // the crash tick land on disk.
  FaultInjector::WriteOutcome w = inj.OnWrite("a", 5);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(w.status));
  EXPECT_EQ(w.applied, 2u);
}

TEST(FaultInjectorTest, TornAppendAppliesBytePrefix) {
  // An append is one tick but tears at byte granularity, including the
  // two edge cases: nothing landed (record-edge truncation) and the whole
  // record landed (an in-doubt commit).
  bool saw_partial = false, saw_none = false, saw_full = false;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultInjector inj;
    FaultPlan plan;
    plan.seed = seed;
    plan.crash_after_writes = 1;
    plan.torn_writes = true;
    inj.Arm(plan);
    FaultInjector::AppendOutcome a = inj.OnAppend("clog", 16);
    EXPECT_TRUE(FaultInjector::IsInjectedCrash(a.status));
    EXPECT_LE(a.applied, 16u);
    if (a.applied == 0) saw_none = true;
    else if (a.applied == 16) saw_full = true;
    else saw_partial = true;
  }
  EXPECT_TRUE(saw_none);
  EXPECT_TRUE(saw_partial);
  EXPECT_TRUE(saw_full);
  // With torn writes off, the append is all-or-nothing: nothing landed.
  FaultInjector inj;
  FaultPlan plan;
  plan.crash_after_writes = 1;
  plan.torn_writes = false;
  inj.Arm(plan);
  FaultInjector::AppendOutcome a = inj.OnAppend("clog", 16);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(a.status));
  EXPECT_EQ(a.applied, 0u);
}

TEST(FaultInjectorTest, TransientBurstIsBounded) {
  FaultInjector inj;
  FaultPlan plan;
  plan.transient_error_rate = 10000;  // every draw fails...
  plan.transient_max_burst = 2;       // ...but never more than twice in a row
  inj.Arm(plan);
  EXPECT_TRUE(inj.OnWrite("a", 1).status.IsUnavailable());
  EXPECT_TRUE(inj.OnWrite("a", 1).status.IsUnavailable());
  EXPECT_OK(inj.OnWrite("a", 1).status);  // burst exhausted -> succeeds
  EXPECT_TRUE(inj.OnWrite("a", 1).status.IsUnavailable());  // new burst
  // Reads draw transients too; appends never do (a transient on the
  // commit-log append would turn into a false abort).
  EXPECT_TRUE(inj.OnRead("b", 1).IsUnavailable());
  EXPECT_TRUE(inj.OnRead("b", 1).IsUnavailable());
  EXPECT_OK(inj.OnRead("b", 1));
  for (int i = 0; i < 8; ++i) {
    EXPECT_OK(inj.OnAppend("clog", 16).status);
  }
}

TEST(FaultInjectorTest, VolatileLossTruncatesRegisteredFiles) {
  TempDir td;
  std::string path = td.Sub("vol");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("0123456789", f);
  std::fclose(f);
  FaultInjector inj;
  // First registration wins: the durable prefix is 4 bytes, later (still
  // unsynced) appends must not advance it.
  inj.NoteUnsynced(path, 4);
  inj.NoteUnsynced(path, 8);
  ASSERT_OK(inj.ApplyVolatileLoss());
  struct ::stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 4);
  // A sync clears the registration; the next loss keeps everything.
  inj.NoteUnsynced(path, 2);
  inj.ClearUnsynced(path);
  ASSERT_OK(inj.ApplyVolatileLoss());
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 4);
}

TEST(RetryTest, RetriesTransientsWithBackoff) {
  SimClock clock;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_start_ns = 1000;
  policy.backoff_multiplier = 2;
  policy.clock = &clock;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return calls < 3 ? Status::Unavailable("flaky") : Status::OK();
  });
  EXPECT_OK(s);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(clock.NowNanos(), 1000u + 2000u);  // two backoffs
}

TEST(RetryTest, ExhaustsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, DoesNotRetryNonTransientErrors) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  Status s = RetryTransient(policy, [&] {
    ++calls;
    return FaultInjector::CrashStatus("smgr.disk");
  });
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(s));
  EXPECT_EQ(calls, 1);  // a crash is not a transient — never retried
}

TEST(FaultySmgrTest, TornVectoredWriteLeavesBlockPrefix) {
  TempDir td;
  FaultInjector inj;
  FaultyStorageManager smgr(
      std::make_unique<DiskSmgr>(td.Sub("disk"), nullptr), &inj);
  ASSERT_OK(smgr.CreateFile(7));
  Bytes run(4 * kPageSize);
  Random rng(1);
  for (size_t i = 0; i < run.size(); ++i) {
    run[i] = static_cast<uint8_t>(rng.Next());
  }
  FaultPlan plan;
  plan.crash_after_writes = 2;
  plan.torn_writes = true;
  inj.Arm(plan);
  Status s = smgr.WriteBlocks(7, 0, 4, run.data());
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(s));
  inj.Disarm();
  // Exactly one whole block (the prefix before the crash tick) landed.
  ASSERT_OK_AND_ASSIGN(BlockNumber nblocks, smgr.NumBlocks(7));
  EXPECT_EQ(nblocks, 1u);
  Bytes got(kPageSize);
  ASSERT_OK(smgr.ReadBlock(7, 0, got.data()));
  EXPECT_EQ(0, std::memcmp(got.data(), run.data(), kPageSize));
}

TEST(FaultySmgrTest, MetadataOpsAreAllOrNothing) {
  TempDir td;
  FaultInjector inj;
  FaultyStorageManager smgr(
      std::make_unique<DiskSmgr>(td.Sub("disk"), nullptr), &inj);
  FaultPlan plan;
  plan.crash_after_writes = 1;
  inj.Arm(plan);
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(smgr.CreateFile(7)));
  inj.Disarm();
  EXPECT_FALSE(smgr.FileExists(7));  // nothing reached the inner manager
}

TEST(FaultySmgrTest, CorruptionIsCaughtByChecksumPath) {
  // Bit corruption injected under a committed write must be detected —
  // not silently returned — when the page is next read from disk.
  TempDir td;
  FaultInjector inj;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  opts.charge_devices = false;
  opts.fault_injector = &inj;
  Database db;
  ASSERT_OK(db.Open(opts));
  auto session = db.Connect();
  Transaction* txn = session->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kFChunk;
  spec.smgr = kSmgrDisk;
  ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db.large_objects().Instantiate(txn, oid));
  Random rng(7);
  Bytes data = rng.RandomBytes(24 * 1024);
  ASSERT_OK(lo->Write(txn, 0, Slice(data)));
  lo.reset();
  // Corrupt one bit somewhere in every block run flushed by this commit.
  FaultPlan plan;
  plan.corrupt_block_rate = 10000;
  plan.seed = 3;
  inj.Arm(plan);
  ASSERT_OK(session->Commit().status());
  inj.Disarm();
  // Reopen so reads actually hit the (corrupted) platter, not the pool.
  ASSERT_OK(db.SimulateCrashAndReopen());
  Result<IntegrityReport> check = CheckIntegrity(&db);
  // Depending on which pages the corruption hit, the sweep either fails
  // outright (catalog page) or reports problems (object pages) — silence
  // is the only wrong answer.
  bool detected = !check.ok() || !check.value().ok();
  EXPECT_TRUE(detected);
  if (check.ok()) {
    EXPECT_GT(check.value().problems.size(), 0u)
        << check.value().ToString();
  }
}

TEST(FaultTest, TransientErrorsAreAbsorbedByRetries) {
  // With every I/O drawing a transient and bursts capped below the retry
  // budget, a full write/commit/read cycle — buffer pool, UFS block
  // cache, and all — must still succeed.
  TempDir td;
  FaultInjector inj;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  opts.charge_devices = false;
  opts.fault_injector = &inj;
  Database db;
  ASSERT_OK(db.Open(opts));
  FaultPlan plan;
  plan.transient_error_rate = 2500;  // 25% of draws
  plan.transient_max_burst = 2;
  inj.Arm(plan);
  auto session = db.Connect();
  Transaction* txn = session->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kUserFile;
  spec.ufile_path = "flaky.dat";
  ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db.large_objects().Instantiate(txn, oid));
  Random rng(9);
  Bytes data = rng.RandomBytes(40 * 1024);
  ASSERT_OK(lo->Write(txn, 0, Slice(data)));
  Bytes back(data.size());
  ASSERT_OK_AND_ASSIGN(size_t n,
                       lo->Read(txn, 0, back.size(), back.data()));
  EXPECT_EQ(n, back.size());
  EXPECT_EQ(back, data);
  lo.reset();
  ASSERT_OK(session->Commit().status());
  inj.Disarm();
  StatsSnapshot snap = db.Stats();
  EXPECT_GT(snap.Value("fault.transient_errors"), 0u);
  EXPECT_GT(snap.Value("fault.io_retries"), 0u);
  ASSERT_OK(db.Close());
}

}  // namespace
}  // namespace pglo

// Crash-recovery verification: the deterministic crash-point sweep, the
// commit-log truncation rules, WORM burn/map crash windows, the
// asynchronous-commit regression, and Inversion bootstrap crash repair.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "db/check.h"
#include "db/database.h"
#include "fault/crash_harness.h"
#include "fault/fault_injector.h"
#include "inversion/inversion_fs.h"
#include "tests/test_util.h"
#include "txn/commit_log.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;
using pglo::testing::TestSeed;

// A bounded sample of the full crash-point sweep: every sampled point
// must recover to its last-committed images with a clean fsck. The full
// enumeration runs as `pglo_crashtest --all-points` (tools/check.sh runs
// the --quick gate).
TEST(CrashHarnessTest, SampledSweepRecoversEveryPoint) {
  TempDir td;
  CrashHarnessOptions opts;
  opts.dir = td.Sub("sweep");
  opts.seed = TestSeed();
  opts.num_txns = 4;
  ASSERT_OK_AND_ASSIGN(CrashHarnessReport report,
                       CrashHarness(opts).RunAll(/*max_points=*/20));
  EXPECT_TRUE(report.ok()) << "seed " << opts.seed << ": "
                           << report.ToString();
  EXPECT_EQ(report.points_crashed, report.points_run);
  // The sweep exercises the interesting window: some sampled point must
  // have interrupted a commit record.
  EXPECT_GT(report.in_doubt_commits, 0u) << report.ToString();
}

TEST(CrashHarnessTest, AtomicWritesSweepAlsoPasses) {
  // torn_writes=false models block-atomic hardware; recovery must hold
  // there too (it is strictly easier than the torn default).
  TempDir td;
  CrashHarnessOptions opts;
  opts.dir = td.Sub("sweep");
  opts.seed = TestSeed();
  opts.num_txns = 4;
  opts.torn_writes = false;
  ASSERT_OK_AND_ASSIGN(CrashHarnessReport report,
                       CrashHarness(opts).RunAll(/*max_points=*/10));
  EXPECT_TRUE(report.ok()) << report.ToString();
}

off_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? st.st_size : -1;
}

TEST(CommitLogCrashTest, TruncatedMidRecordIsAborted) {
  TempDir td;
  std::string path = td.Sub("clog");
  Xid first = 0, second = 0;
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(path));
    first = 100;
    second = 101;
    ASSERT_OK(clog.RecordCommit(first).status());
    ASSERT_OK(clog.RecordCommit(second).status());
    ASSERT_OK(clog.Close());
  }
  const off_t rec = static_cast<off_t>(CommitLog::RecordSize());
  ASSERT_EQ(FileSize(path), 2 * rec);
  // Cut the second record in half: a crash mid-append.
  ASSERT_EQ(::truncate(path.c_str(), rec + rec / 2), 0);
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(path));
    EXPECT_EQ(clog.GetState(first), TxnState::kCommitted);
    EXPECT_EQ(clog.GetState(second), TxnState::kAborted);
    // Replay discarded the torn tail, so the next append lands on a
    // record boundary rather than extending the garbage.
    ASSERT_OK(clog.RecordCommit(102).status());
    EXPECT_EQ(clog.GetState(102), TxnState::kCommitted);
    ASSERT_OK(clog.Close());
  }
  ASSERT_EQ(FileSize(path), 2 * rec);
  // And the verdicts survive another replay.
  CommitLog clog;
  ASSERT_OK(clog.Open(path));
  EXPECT_EQ(clog.GetState(first), TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(second), TxnState::kAborted);
  EXPECT_EQ(clog.GetState(102), TxnState::kCommitted);
}

TEST(CommitLogCrashTest, TruncatedOnRecordEdgeIsAborted) {
  // The boundary case: the crash removed the record exactly, leaving a
  // well-formed shorter log.
  TempDir td;
  std::string path = td.Sub("clog");
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(path));
    ASSERT_OK(clog.RecordCommit(7).status());
    ASSERT_OK(clog.RecordCommit(8).status());
    ASSERT_OK(clog.Close());
  }
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(CommitLog::RecordSize())),
            0);
  CommitLog clog;
  ASSERT_OK(clog.Open(path));
  EXPECT_EQ(clog.GetState(7), TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(8), TxnState::kAborted);
}

TEST(CommitLogCrashTest, InjectedTornAppendResolvesOnReplay) {
  // Drive the torn-append path through the injector rather than host
  // truncate: whatever prefix the tear left, replay must classify the
  // transaction as committed (full record) or aborted (anything less).
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    TempDir td;
    std::string path = td.Sub("clog");
    FaultInjector inj;
    {
      CommitLog clog;
      clog.SetFaultInjector(&inj);
      ASSERT_OK(clog.Open(path));
      ASSERT_OK(clog.RecordCommit(41).status());
      FaultPlan plan;
      plan.seed = seed;
      plan.crash_after_writes = 1;
      plan.torn_writes = true;
      inj.Arm(plan);
      Result<CommitTime> r = clog.RecordCommit(42);
      ASSERT_FALSE(r.ok());
      EXPECT_TRUE(FaultInjector::IsInjectedCrash(r.status()));
      inj.Disarm();
      // No Close(): the process just died.
    }
    off_t size = FileSize(path);
    const off_t rec = static_cast<off_t>(CommitLog::RecordSize());
    CommitLog clog;
    ASSERT_OK(clog.Open(path));
    EXPECT_EQ(clog.GetState(41), TxnState::kCommitted);
    if (size == 2 * rec) {
      EXPECT_EQ(clog.GetState(42), TxnState::kCommitted);  // in-doubt: won
    } else {
      EXPECT_EQ(clog.GetState(42), TxnState::kAborted);
    }
  }
}

TEST(WormCrashTest, CrashBetweenBurnAndMapOrphansTheBlock) {
  // Enumerate every crash point of a small burn workload directly on the
  // WORM manager. Reopen must always succeed (a torn map tail is
  // discarded), reads of mapped blocks must verify, and at least one
  // point — the window between burning the fresh run and appending the
  // relocation record — must surface as an orphaned optical block.
  Bytes block(kPageSize, 0xAB);
  auto workload = [&](WormSmgr* worm) -> Status {
    PGLO_RETURN_IF_ERROR(worm->CreateFile(3));
    PGLO_RETURN_IF_ERROR(worm->WriteBlock(3, 0, block.data()));
    PGLO_RETURN_IF_ERROR(worm->WriteBlock(3, 1, block.data()));
    // Rewrite of a write-once block: relocates to a fresh optical run.
    return worm->WriteBlock(3, 0, block.data());
  };

  uint64_t total = 0;
  {
    TempDir td;
    FaultInjector inj;
    FaultPlan plan;
    inj.Arm(plan);  // counting only
    WormSmgr worm(td.path(), nullptr, nullptr, 16);
    worm.SetFaultInjector(&inj);
    ASSERT_OK(worm.Open());
    ASSERT_OK(workload(&worm));
    total = inj.writes_seen();
    ASSERT_GT(total, 0u);
  }

  bool saw_orphan = false;
  for (uint64_t point = 1; point <= total; ++point) {
    TempDir td;
    FaultInjector inj;
    FaultPlan plan;
    plan.seed = TestSeed();
    plan.crash_after_writes = point;
    inj.Arm(plan);
    {
      WormSmgr worm(td.path(), nullptr, nullptr, 16);
      worm.SetFaultInjector(&inj);
      Status s = worm.Open();
      if (s.ok()) s = workload(&worm);
      ASSERT_FALSE(s.ok()) << "point " << point << " never fired";
      ASSERT_TRUE(inj.crashed());
    }
    inj.Disarm();
    // Power back on: replay the relocation map from stable storage.
    WormSmgr worm(td.path(), nullptr, nullptr, 16);
    Status open_s = worm.Open();
    ASSERT_TRUE(open_s.ok())
        << "point " << point << ": " << open_s.ToString();
    if (worm.OrphanedBlocks() > 0) saw_orphan = true;
    // Every mapped logical block must still read back intact.
    if (worm.FileExists(3)) {
      ASSERT_OK_AND_ASSIGN(BlockNumber n, worm.NumBlocks(3));
      Bytes got(kPageSize);
      for (BlockNumber b = 0; b < n; ++b) {
        Status rs = worm.ReadBlock(3, b, got.data());
        ASSERT_TRUE(rs.ok()) << "point " << point << " block " << b << ": "
                             << rs.ToString();
        EXPECT_EQ(got, block);
      }
    }
  }
  EXPECT_TRUE(saw_orphan)
      << "no crash point landed between burn and map append";
}

TEST(WormCrashTest, FsckReportsOrphanedBlocks) {
  // The orphan count flows through the integrity report (informational —
  // dead platter space is benign under write-once semantics).
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
  spec.smgr = kSmgrWorm;
  ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db.large_objects().Instantiate(txn, oid));
  Bytes data(10 * 1024, 0x5C);
  ASSERT_OK(lo->Write(txn, 0, Slice(data)));
  lo.reset();
  ASSERT_OK(session->Commit().status());
  // Burn a block "by hand" whose map record the crash swallows: the burn
  // (tick 1) completes, the relocation-map append (tick 2) does not.
  ASSERT_OK(db.worm()->CreateFile(99));
  FaultPlan plan;
  plan.crash_after_writes = 2;
  plan.torn_writes = false;
  inj.Arm(plan);
  Bytes raw(kPageSize, 0xEE);
  Status s = db.worm()->WriteBlock(99, 0, raw.data());
  EXPECT_TRUE(FaultInjector::IsInjectedCrash(s));
  inj.Disarm();
  ASSERT_OK(db.SimulateCrashAndReopen());
  ASSERT_OK_AND_ASSIGN(IntegrityReport report, CheckIntegrity(&db));
  EXPECT_TRUE(report.ok()) << report.ToString();  // orphan is not corrupt
  EXPECT_GT(report.worm_orphaned_blocks, 0u);
  EXPECT_NE(report.ToString().find("orphaned WORM"), std::string::npos);
}

TEST(AsyncCommitRegressionTest, UnsyncedCommitVanishesAtCrash) {
  // The deliberately-seeded regression: with synchronous_commit=false the
  // commit "succeeds" but its log record is never forced. The power
  // failure must demote it to aborted — and with the fsync in place the
  // same transaction survives.
  for (bool synchronous : {false, true}) {
    TempDir td;
    FaultInjector inj;
    DatabaseOptions opts;
    opts.dir = td.Sub("db");
    opts.charge_devices = false;
    // Create the database healthy first (bootstrap commit durable), so
    // the broken configuration below loses exactly the new transaction —
    // not the whole instance.
    {
      Database init;
      ASSERT_OK(init.Open(opts));
      ASSERT_OK(init.Close());
    }
    opts.fault_injector = &inj;
    opts.synchronous_commit = synchronous;
    Database db;
    ASSERT_OK(db.Open(opts));
    auto session = db.Connect();
    Transaction* txn = session->Begin();
    Xid xid = txn->xid();
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    spec.smgr = kSmgrDisk;
    ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                         db.large_objects().Instantiate(txn, oid));
    Bytes data(4096, 0x11);
    ASSERT_OK(lo->Write(txn, 0, Slice(data)));
    lo.reset();
    ASSERT_OK(session->Commit().status());  // reports success either way
    ASSERT_OK(db.SimulateCrashAndReopen());
    // Read the log state before beginning another transaction, so a
    // recycled xid cannot shadow the verdict for the lost one.
    TxnState state = db.txns().commit_log().GetState(xid);
    Transaction* probe = session->Begin();
    ASSERT_OK_AND_ASSIGN(bool exists, db.large_objects().Exists(probe, oid));
    if (synchronous) {
      EXPECT_EQ(state, TxnState::kCommitted);
      EXPECT_TRUE(exists);
    } else {
      EXPECT_EQ(state, TxnState::kAborted);
      EXPECT_FALSE(exists) << "lost commit resurfaced as committed data";
    }
    ASSERT_OK(session->Abort());
  }
}

TEST(AsyncCommitRegressionTest, HarnessCatchesTheRegression) {
  // The sweep itself must flag the broken configuration: some crash point
  // after an unsynced commit recovers to a state missing committed data.
  TempDir td;
  CrashHarnessOptions opts;
  opts.dir = td.Sub("sweep");
  opts.seed = 42;
  opts.num_txns = 4;
  opts.synchronous_commit = false;
  ASSERT_OK_AND_ASSIGN(CrashHarnessReport report,
                       CrashHarness(opts).RunAll(/*max_points=*/40));
  EXPECT_FALSE(report.ok())
      << "no-fsync commit log escaped the crash sweep: "
      << report.ToString();
}

TEST(PostCommitGcCrashTest, DurableCommitIsReportedAndConsumed) {
  // Sweep crash points over the commit of a transaction that made a
  // temporary object, until one lands after the commit record is durable
  // but inside the post-commit garbage collection that unlinks the
  // temporary (§5). The commit stands: Commit() must return its tick and
  // consume the transaction, since a retry would apply it twice.
  bool hit = false;
  for (uint64_t point = 1; point <= 64 && !hit; ++point) {
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
    Xid xid = txn->xid();
    ASSERT_OK_AND_ASSIGN(Oid temp,
                         db.large_objects().CreateTemp(txn, LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db.large_objects().Open(txn, temp, true));
    ASSERT_OK(fd->Write(Slice("scratch")));
    FaultPlan plan;
    plan.crash_after_writes = point;
    plan.torn_writes = false;
    inj.Arm(plan);
    Result<CommitTime> tick = session->Commit();
    ASSERT_TRUE(inj.crashed()) << "point " << point
                               << ": commit and GC finished uncrashed";
    if (db.txns().commit_log().GetState(xid) == TxnState::kCommitted) {
      hit = true;
      ASSERT_TRUE(tick.ok()) << "point " << point << ": "
                             << tick.status().ToString();
      EXPECT_EQ(tick.value(),
                db.txns().commit_log().Lookup(xid).commit_time);
      EXPECT_FALSE(session->in_txn());
      EXPECT_EQ(db.txns().active_count(), 0u);
      EXPECT_TRUE(session->Abort().IsInvalidArgument());
    }
    session->Abandon();
    inj.Disarm();
    ASSERT_OK(db.SimulateCrashAndReopen());
  }
  EXPECT_TRUE(hit) << "no crash point landed in post-commit GC";
}

TEST(InversionCrashTest, BootstrapIsCrashRepairable) {
  // Crash at each point inside Bootstrap + first commit, then bootstrap
  // again on the recovered database: the second attempt must cope with
  // whatever half-flushed metadata the first left behind.
  uint64_t total = 0;
  {
    TempDir td;
    FaultInjector inj;
    FaultPlan plan;
    inj.Arm(plan);  // counting
    DatabaseOptions opts;
    opts.dir = td.Sub("db");
    opts.charge_devices = false;
    opts.fault_injector = &inj;
    Database db;
    ASSERT_OK(db.Open(opts));
    uint64_t base = inj.writes_seen();
    InversionFs fs(db.context(), &db.large_objects());
    auto session = db.Connect();
    ASSERT_OK(fs.Bootstrap(session->Begin()));
    ASSERT_OK(session->Commit().status());
    total = inj.writes_seen();
    ASSERT_GT(total, base);
  }
  for (uint64_t point = 1; point <= total; ++point) {
    TempDir td;
    FaultInjector inj;
    FaultPlan plan;
    plan.seed = TestSeed();
    plan.crash_after_writes = point;
    inj.Arm(plan);
    DatabaseOptions opts;
    opts.dir = td.Sub("db");
    opts.charge_devices = false;
    opts.fault_injector = &inj;
    auto db = std::make_unique<Database>();
    Status s = db->Open(opts);
    if (s.ok()) {
      InversionFs fs(db->context(), &db->large_objects());
      auto session = db->Connect();
      s = fs.Bootstrap(session->Begin());
      if (s.ok()) s = session->Commit().status();
      session->Abandon();  // whatever the crash left in flight
    }
    ASSERT_TRUE(inj.crashed()) << "point " << point << ": " << s.ToString();
    if (db->is_open()) {
      inj.Disarm();
      ASSERT_OK(db->SimulateCrashAndReopen());
    } else {
      db.reset();  // destructors run with the injector still latched
      inj.Disarm();
      ASSERT_OK(inj.ApplyVolatileLoss());
      db = std::make_unique<Database>();
      ASSERT_OK(db->Open(opts));
    }
    // Second bootstrap over the wreckage, then real use.
    InversionFs fs(db->context(), &db->large_objects());
    auto session = db->Connect();
    Transaction* txn = session->Begin();
    Status boot_s = fs.Bootstrap(txn);
    ASSERT_TRUE(boot_s.ok())
        << "point " << point << ": " << boot_s.ToString();
    ASSERT_OK(fs.MkDir(txn, "/d").status());
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    spec.smgr = kSmgrDisk;
    ASSERT_OK(fs.Create(txn, "/d/f", spec).status());
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fh,
                         fs.Open(txn, "/d/f", /*writable=*/true));
    Bytes data(3000, 0x42);
    ASSERT_OK(fh->Write(Slice(data)));
    ASSERT_OK(session->Commit().status());
    Transaction* probe = session->Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * back,
                         fs.Open(probe, "/d/f", /*writable=*/false));
    ASSERT_OK_AND_ASSIGN(Bytes got, back->Read(data.size()));
    EXPECT_EQ(got, data) << "point " << point;
    ASSERT_OK(session->Abort());
    ASSERT_OK(db->Close());
  }
}

}  // namespace
}  // namespace pglo

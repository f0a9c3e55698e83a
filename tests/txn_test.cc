#include <gtest/gtest.h>

#include "smgr/mm_smgr.h"
#include "storage/buffer_pool.h"
#include "tests/test_util.h"
#include "txn/commit_log.h"
#include "txn/snapshot.h"
#include "txn/txn_manager.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

class CommitLogTest : public ::testing::Test {
 protected:
  TempDir dir_;
};

TEST_F(CommitLogTest, CommitAssignsIncreasingTimes) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  ASSERT_OK_AND_ASSIGN(CommitTime t1, clog.RecordCommit(2));
  ASSERT_OK_AND_ASSIGN(CommitTime t2, clog.RecordCommit(3));
  EXPECT_LT(t1, t2);
  EXPECT_EQ(clog.Now(), t2);
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  EXPECT_EQ(clog.Lookup(2).commit_time, t1);
}

TEST_F(CommitLogTest, AbortRecorded) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  ASSERT_OK(clog.RecordAbort(5));
  EXPECT_EQ(clog.GetState(5), TxnState::kAborted);
  EXPECT_EQ(clog.Lookup(5).commit_time, kInvalidCommitTime);
}

TEST_F(CommitLogTest, UnknownXidIsAborted) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(999), TxnState::kAborted);
}

TEST_F(CommitLogTest, BootstrapAlwaysCommitted) {
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(kBootstrapXid), TxnState::kCommitted);
}

TEST_F(CommitLogTest, ReplayAfterReopen) {
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(dir_.Sub("clog")));
    ASSERT_OK(clog.RecordCommit(2).status());
    ASSERT_OK(clog.RecordAbort(3));
    ASSERT_OK(clog.RecordCommit(4).status());
  }
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  EXPECT_EQ(clog.GetState(3), TxnState::kAborted);
  EXPECT_EQ(clog.GetState(4), TxnState::kCommitted);
  EXPECT_EQ(clog.MaxRecordedXid(), 4u);
  // New commits continue after the replayed high-water mark.
  ASSERT_OK_AND_ASSIGN(CommitTime t, clog.RecordCommit(5));
  EXPECT_GT(t, clog.Lookup(4).commit_time);
}

TEST_F(CommitLogTest, TruncatesTornTail) {
  {
    CommitLog clog;
    ASSERT_OK(clog.Open(dir_.Sub("clog")));
    ASSERT_OK(clog.RecordCommit(2).status());
  }
  // Append garbage simulating a torn write.
  FILE* f = fopen(dir_.Sub("clog").c_str(), "ab");
  ASSERT_NE(f, nullptr);
  fwrite("garbage", 1, 7, f);
  fclose(f);
  CommitLog clog;
  ASSERT_OK(clog.Open(dir_.Sub("clog")));
  EXPECT_EQ(clog.GetState(2), TxnState::kCommitted);
  ASSERT_OK(clog.RecordCommit(3).status());
}

class TxnTest : public ::testing::Test {
 protected:
  TxnTest() : pool_(&smgrs_, 16) {
    EXPECT_OK(smgrs_.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
    EXPECT_OK(clog_.Open(dir_.Sub("clog")));
    txns_ = std::make_unique<TxnManager>(&clog_, &pool_);
  }

  TempDir dir_;
  SmgrRegistry smgrs_;
  BufferPool pool_;
  CommitLog clog_;
  std::unique_ptr<TxnManager> txns_;
};

TEST_F(TxnTest, BeginCommitLifecycle) {
  Transaction* txn = txns_->Begin();
  EXPECT_TRUE(txn->active());
  EXPECT_EQ(clog_.GetState(txn->xid()), TxnState::kInProgress);
  Xid xid = txn->xid();
  ASSERT_OK(txns_->Commit(txn).status());
  EXPECT_EQ(clog_.GetState(xid), TxnState::kCommitted);
  EXPECT_EQ(txns_->active_count(), 0u);
}

TEST_F(TxnTest, AbortLifecycle) {
  Transaction* txn = txns_->Begin();
  Xid xid = txn->xid();
  ASSERT_OK(txns_->Abort(txn));
  EXPECT_EQ(clog_.GetState(xid), TxnState::kAborted);
}

TEST_F(TxnTest, AbortsIssueNoFsync) {
  // A missing record already reads as aborted, so an abort never pays an
  // fdatasync of its own; its record rides on the next commit's sync.
  uint64_t before = clog_.fsync_count();
  for (int i = 0; i < 8; ++i) {
    Transaction* txn = txns_->Begin();
    Xid xid = txn->xid();
    ASSERT_OK(txns_->Abort(txn));
    EXPECT_EQ(clog_.GetState(xid), TxnState::kAborted);
  }
  EXPECT_EQ(clog_.fsync_count(), before);
  ASSERT_OK(txns_->Commit(txns_->Begin()).status());
  EXPECT_EQ(clog_.fsync_count(), before + 1);
}

TEST_F(TxnTest, FinishCallbacksFire) {
  Transaction* txn = txns_->Begin();
  bool fired = false, committed = false;
  txn->OnFinish([&](bool c) {
    fired = true;
    committed = c;
  });
  ASSERT_OK(txns_->Commit(txn).status());
  EXPECT_TRUE(fired);
  EXPECT_TRUE(committed);

  txn = txns_->Begin();
  fired = false;
  txn->OnFinish([&](bool c) {
    fired = true;
    committed = c;
  });
  ASSERT_OK(txns_->Abort(txn));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(committed);
}

TEST_F(TxnTest, DoubleCommitRejected) {
  Transaction* txn = txns_->Begin();
  ASSERT_OK(txns_->Commit(txn).status());
  // txn pointer is dead now; use a fresh one for abort-after-commit check.
  Transaction* txn2 = txns_->Begin();
  ASSERT_OK(txns_->Abort(txn2));
}

TEST_F(TxnTest, SnapshotSeesOwnWrites) {
  Transaction* txn = txns_->Begin();
  EXPECT_TRUE(txn->snapshot().IsVisible(txn->xid(), kInvalidXid));
  EXPECT_FALSE(txn->snapshot().IsVisible(txn->xid(), txn->xid()));
}

TEST_F(TxnTest, SnapshotHidesConcurrentUncommitted) {
  Transaction* t1 = txns_->Begin();
  Transaction* t2 = txns_->Begin();
  EXPECT_FALSE(t2->snapshot().IsVisible(t1->xid(), kInvalidXid));
  ASSERT_OK(txns_->Commit(t1).status());
  ASSERT_OK(txns_->Abort(t2));
}

TEST_F(TxnTest, SnapshotIsolation) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->xid();
  Transaction* t2 = txns_->Begin();  // snapshot taken before t1 commits
  ASSERT_OK(txns_->Commit(t1).status());
  // t2's snapshot predates t1's commit: invisible.
  EXPECT_FALSE(t2->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t2));
  // A new transaction sees it.
  Transaction* t3 = txns_->Begin();
  EXPECT_TRUE(t3->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t3));
}

TEST_F(TxnTest, TimeTravelSnapshot) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->xid();
  ASSERT_OK_AND_ASSIGN(CommitTime time1, txns_->Commit(t1));

  Transaction* t2 = txns_->Begin();
  Xid x2 = t2->xid();
  ASSERT_OK(txns_->Commit(t2).status());

  // As of time1: x1 visible, x2 not.
  Transaction* historical = txns_->BeginAsOf(time1);
  EXPECT_TRUE(historical->read_only());
  EXPECT_TRUE(historical->snapshot().IsVisible(x1, kInvalidXid));
  EXPECT_FALSE(historical->snapshot().IsVisible(x2, kInvalidXid));
  // A deletion by x2 is not yet visible at time1: tuple still alive.
  EXPECT_TRUE(historical->snapshot().IsVisible(x1, x2));
  ASSERT_OK(txns_->Abort(historical));
}

TEST_F(TxnTest, HistoricalSnapshotIgnoresOwnXid) {
  Transaction* t = txns_->BeginAsOf(0);
  EXPECT_FALSE(t->snapshot().IsVisible(t->xid(), kInvalidXid));
  ASSERT_OK(txns_->Abort(t));
}

TEST_F(TxnTest, AbortedInserterNeverVisible) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->xid();
  ASSERT_OK(txns_->Abort(t1));
  Transaction* t2 = txns_->Begin();
  EXPECT_FALSE(t2->snapshot().IsVisible(x1, kInvalidXid));
  ASSERT_OK(txns_->Abort(t2));
}

TEST_F(TxnTest, AbortedDeleterLeavesTupleAlive) {
  Transaction* t1 = txns_->Begin();
  Xid x1 = t1->xid();
  ASSERT_OK(txns_->Commit(t1).status());
  Transaction* t2 = txns_->Begin();
  Xid x2 = t2->xid();
  ASSERT_OK(txns_->Abort(t2));
  Transaction* t3 = txns_->Begin();
  EXPECT_TRUE(t3->snapshot().IsVisible(x1, x2));  // deleter aborted
  ASSERT_OK(txns_->Abort(t3));
}

TEST_F(TxnTest, RestoreNextXidAfterReplay) {
  Transaction* t = txns_->Begin();
  Xid last = t->xid();
  ASSERT_OK(txns_->Commit(t).status());

  CommitLog clog2;
  ASSERT_OK(clog2.Open(dir_.Sub("clog")));
  TxnManager txns2(&clog2, &pool_);
  txns2.RestoreNextXid();
  Transaction* fresh = txns2.Begin();
  EXPECT_GT(fresh->xid(), last);
  ASSERT_OK(txns2.Abort(fresh));
}

}  // namespace
}  // namespace pglo

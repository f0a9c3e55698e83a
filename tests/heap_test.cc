#include <gtest/gtest.h>

#include "common/random.h"
#include "heap/heap_class.h"
#include "obs/stats.h"
#include "obs/wait_event.h"
#include "smgr/mm_smgr.h"
#include "tests/test_util.h"
#include "txn/txn_manager.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

/// The payloads `txn` sees, in the order a full walk visits them.
std::vector<std::string> VisibleRows(HeapClass* heap, Transaction* txn) {
  std::vector<std::string> out;
  Result<bool> stopped =
      heap->Scan(txn, [&](Tid, Slice payload) -> Result<bool> {
        out.push_back(payload.ToString());
        return false;
      });
  EXPECT_OK(stopped.status());
  if (stopped.ok()) {
    EXPECT_FALSE(stopped.value());
  }
  return out;
}

class HeapTest : public ::testing::Test {
 protected:
  HeapTest() : pool_(&smgrs_, 32) {
    EXPECT_OK(smgrs_.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
    EXPECT_OK(clog_.Open(dir_.Sub("clog")));
    txns_ = std::make_unique<TxnManager>(&clog_, &pool_);
    EXPECT_OK(HeapClass::Create(&pool_, file_));
    heap_ = std::make_unique<HeapClass>(&pool_, file_);
  }

  Transaction* Begin() { return txns_->Begin(); }
  void Commit(Transaction* txn) { ASSERT_OK(txns_->Commit(txn).status()); }
  void Abort(Transaction* txn) { ASSERT_OK(txns_->Abort(txn)); }

  std::vector<std::string> VisibleRows(Transaction* txn) {
    return pglo::VisibleRows(heap_.get(), txn);
  }

  /// Appends an item too short to hold a tuple header to `block`.
  void PlantShortTuple(BlockNumber block) {
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool_.GetPage({file_, block}));
    SlottedPage page(handle.data());
    ASSERT_OK(page.AddItem(Slice("xy")).status());
    handle.MarkDirty();
  }

  TempDir dir_;
  SmgrRegistry smgrs_;
  BufferPool pool_;
  CommitLog clog_;
  std::unique_ptr<TxnManager> txns_;
  RelFileId file_{0, 1};
  std::unique_ptr<HeapClass> heap_;
};

TEST_F(HeapTest, InsertAndGet) {
  Transaction* txn = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(txn, Slice("row one")));
  ASSERT_OK_AND_ASSIGN(Bytes payload, heap_->Get(txn, tid));
  EXPECT_EQ(Slice(payload).ToString(), "row one");
  Commit(txn);
}

TEST_F(HeapTest, CommittedRowVisibleToLaterTxn) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("hello")));
  Commit(t1);
  Transaction* t2 = Begin();
  ASSERT_OK_AND_ASSIGN(Bytes payload, heap_->Get(t2, tid));
  EXPECT_EQ(Slice(payload).ToString(), "hello");
  Abort(t2);
}

// Visibility resolves each xid with one commit-log lookup, state and
// commit time together: a scan over N committed live rows takes the
// commit log's mutex N times (a row's absent deleter needs no lookup).
TEST_F(HeapTest, ScanTakesTheClogMutexOncePerLiveRow) {
  constexpr uint64_t kRows = 40;
  Transaction* writer = Begin();
  for (uint64_t i = 0; i < kRows; ++i) {
    ASSERT_OK(heap_->Insert(writer, Slice("row " + std::to_string(i)))
                  .status());
  }
  Commit(writer);
  StatsRegistry stats;
  WaitStatsTable waits;
  waits.Bind(&stats, nullptr, 0);
  clog_.BindWaits(&waits);
  Counter* acquires = stats.counter("wait.clog.mutex.acquires");
  Transaction* reader = Begin();
  uint64_t before = acquires->value();
  EXPECT_EQ(VisibleRows(reader).size(), kRows);
  EXPECT_EQ(acquires->value() - before, kRows);
  Abort(reader);
}

TEST_F(HeapTest, UncommittedRowInvisibleToOthers) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("private")));
  Transaction* t2 = Begin();
  EXPECT_TRUE(heap_->Get(t2, tid).status().IsNotFound());
  Commit(t1);
  Abort(t2);
}

TEST_F(HeapTest, AbortRollsBackInsert) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("doomed")));
  Abort(t1);
  Transaction* t2 = Begin();
  EXPECT_TRUE(heap_->Get(t2, tid).status().IsNotFound());
  EXPECT_TRUE(VisibleRows(t2).empty());
  Abort(t2);
}

TEST_F(HeapTest, DeleteHidesRow) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("to delete")));
  Commit(t1);
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Delete(t2, tid));
  // Deleter sees it gone immediately.
  EXPECT_TRUE(heap_->Get(t2, tid).status().IsNotFound());
  Commit(t2);
  Transaction* t3 = Begin();
  EXPECT_TRUE(heap_->Get(t3, tid).status().IsNotFound());
  Abort(t3);
}

TEST_F(HeapTest, AbortedDeleteRestoresRow) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("survivor")));
  Commit(t1);
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Delete(t2, tid));
  Abort(t2);
  Transaction* t3 = Begin();
  ASSERT_OK_AND_ASSIGN(Bytes payload, heap_->Get(t3, tid));
  EXPECT_EQ(Slice(payload).ToString(), "survivor");
  // The stale aborted xmax may be overwritten by a new deleter.
  ASSERT_OK(heap_->Delete(t3, tid));
  Commit(t3);
}

TEST_F(HeapTest, UpdateCreatesNewVersion) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("v1")));
  Commit(t1);
  Transaction* t2 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid2, heap_->Update(t2, tid, Slice("v2")));
  EXPECT_FALSE(tid == tid2);
  Commit(t2);
  Transaction* t3 = Begin();
  EXPECT_TRUE(heap_->Get(t3, tid).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(Bytes payload, heap_->Get(t3, tid2));
  EXPECT_EQ(Slice(payload).ToString(), "v2");
  auto rows = VisibleRows(t3);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "v2");
  Abort(t3);
}

TEST_F(HeapTest, SameTxnUpdateReplacesPhysically) {
  // A version created by the running transaction is replaced in place —
  // intra-transaction states are not history, so no version should pile
  // up. (Bulk-loading a large object depends on this.)
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("draft one")));
  ASSERT_OK_AND_ASSIGN(Tid tid2, heap_->Update(t1, tid, Slice("draft 2")));
  EXPECT_EQ(tid, tid2);  // shrinking update stays in place
  // Only one physical tuple exists.
  ASSERT_OK_AND_ASSIGN(auto any, heap_->GetAnyVersion(tid));
  EXPECT_EQ(Slice(any.second).ToString(), "draft 2");
  ASSERT_OK_AND_ASSIGN(Tid tid3,
                       heap_->Update(t1, tid2, Slice("a much longer draft")));
  Commit(t1);
  Transaction* t2 = Begin();
  auto rows = VisibleRows(t2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "a much longer draft");
  // The old slot was physically retired, not version-chained.
  EXPECT_FALSE(heap_->GetAnyVersion(tid2).ok() &&
               Slice(heap_->GetAnyVersion(tid2).value().second).ToString() ==
                   "draft 2");
  (void)tid3;
  Abort(t2);
}

TEST_F(HeapTest, CrossTxnUpdateStillVersions) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("v1")));
  ASSERT_OK_AND_ASSIGN(CommitTime time1, txns_->Commit(t1));
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Update(t2, tid, Slice("v2")).status());
  Commit(t2);
  Transaction* historical = txns_->BeginAsOf(time1);
  ASSERT_OK_AND_ASSIGN(Bytes old_version, heap_->Get(historical, tid));
  EXPECT_EQ(Slice(old_version).ToString(), "v1");
  Abort(historical);
}

TEST_F(HeapTest, TimeTravelSeesOldVersion) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("old")));
  ASSERT_OK_AND_ASSIGN(CommitTime time1, txns_->Commit(t1));
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Update(t2, tid, Slice("new")).status());
  Commit(t2);

  Transaction* historical = txns_->BeginAsOf(time1);
  auto rows = VisibleRows(historical);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "old");
  Abort(historical);

  Transaction* current = Begin();
  rows = VisibleRows(current);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "new");
  Abort(current);
}

TEST_F(HeapTest, WriteWriteConflictDetected) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("contested")));
  Commit(t1);
  Transaction* t2 = Begin();
  Transaction* t3 = Begin();
  ASSERT_OK(heap_->Delete(t2, tid));
  EXPECT_TRUE(heap_->Delete(t3, tid).IsAborted());  // first updater wins
  Commit(t2);
  Abort(t3);
}

TEST_F(HeapTest, ScanSpansManyPages) {
  Transaction* t1 = Begin();
  Bytes big(3000, 0x42);
  const int kRows = 50;  // 2 rows/page -> 25 pages
  for (int i = 0; i < kRows; ++i) {
    big[0] = static_cast<uint8_t>(i);
    ASSERT_OK(heap_->Insert(t1, Slice(big)).status());
  }
  Commit(t1);
  Transaction* t2 = Begin();
  auto rows = VisibleRows(t2);
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(static_cast<uint8_t>(rows[i][0]), i) << "physical order";
  }
  ASSERT_OK_AND_ASSIGN(BlockNumber blocks, heap_->NumBlocks());
  EXPECT_GE(blocks, 25u);
  Abort(t2);
}

TEST_F(HeapTest, ScanStopsWhereTheVisitorSaysSo) {
  Transaction* t1 = Begin();
  for (const char* row : {"a", "b", "c", "d"}) {
    ASSERT_OK(heap_->Insert(t1, Slice(row)).status());
  }
  Commit(t1);
  Transaction* t2 = Begin();
  std::vector<std::string> seen;
  ASSERT_OK_AND_ASSIGN(
      bool stopped, heap_->Scan(t2, [&](Tid, Slice payload) -> Result<bool> {
        seen.push_back(payload.ToString());
        return payload.ToString() == "b";
      }));
  EXPECT_TRUE(stopped);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  Abort(t2);
}

TEST_F(HeapTest, ScanVisitsPagesAppendedBeforeItReachesThem) {
  // On page 0 the visitor appends three full pages, which the walk has
  // not reached yet, so it visits them too.
  Transaction* txn = Begin();
  ASSERT_OK(heap_->Insert(txn, Slice("first")).status());
  Bytes full(HeapClass::MaxPayload(), 0x42);
  std::vector<BlockNumber> blocks;
  ASSERT_OK_AND_ASSIGN(
      bool stopped, heap_->Scan(txn, [&](Tid tid, Slice) -> Result<bool> {
        if (blocks.empty()) {
          for (int i = 0; i < 3; ++i) {
            PGLO_RETURN_IF_ERROR(heap_->Insert(txn, Slice(full)).status());
          }
        }
        blocks.push_back(tid.block);
        return false;
      }));
  EXPECT_FALSE(stopped);
  EXPECT_EQ(blocks, (std::vector<BlockNumber>{0, 1, 2, 3}));
  Commit(txn);
}

TEST_F(HeapTest, ShortTupleFailsOnlyAWalkThatReachesIt) {
  Transaction* t1 = Begin();
  ASSERT_OK(heap_->Insert(t1, Slice("a")).status());
  ASSERT_OK(heap_->Insert(t1, Slice("b")).status());
  Commit(t1);
  PlantShortTuple(0);
  Transaction* t2 = Begin();
  // A walk that stops at "b" never reaches the short tuple after it on
  // the same page.
  ASSERT_OK_AND_ASSIGN(
      bool stopped, heap_->Scan(t2, [&](Tid, Slice payload) -> Result<bool> {
        return payload.ToString() == "b";
      }));
  EXPECT_TRUE(stopped);
  // A walk that goes on visits the versions before it, then fails.
  std::vector<std::string> seen;
  Result<bool> walked =
      heap_->Scan(t2, [&](Tid, Slice payload) -> Result<bool> {
        seen.push_back(payload.ToString());
        return false;
      });
  EXPECT_TRUE(walked.status().IsCorruption()) << walked.status().ToString();
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  Abort(t2);
}

TEST_F(HeapTest, OversizedPayloadRejected) {
  Transaction* txn = Begin();
  Bytes huge(HeapClass::MaxPayload() + 1, 0);
  EXPECT_TRUE(heap_->Insert(txn, Slice(huge)).status().IsInvalidArgument());
  Bytes exact(HeapClass::MaxPayload(), 0);
  EXPECT_OK(heap_->Insert(txn, Slice(exact)).status());
  Commit(txn);
}

TEST_F(HeapTest, ReadOnlyTxnCannotWrite) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("x")));
  ASSERT_OK_AND_ASSIGN(CommitTime time, txns_->Commit(t1));
  Transaction* historical = txns_->BeginAsOf(time);
  EXPECT_TRUE(
      heap_->Insert(historical, Slice("y")).status().IsPermissionDenied());
  EXPECT_TRUE(heap_->Delete(historical, tid).IsPermissionDenied());
  Abort(historical);
}

TEST_F(HeapTest, VacuumRemovesAbortedVersions) {
  Transaction* t1 = Begin();
  ASSERT_OK(heap_->Insert(t1, Slice("aborted junk")).status());
  Abort(t1);
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Insert(t2, Slice("live")).status());
  Commit(t2);
  ASSERT_OK_AND_ASSIGN(uint64_t removed, heap_->Vacuum(clog_, 0));
  EXPECT_EQ(removed, 1u);
  Transaction* t3 = Begin();
  auto rows = VisibleRows(t3);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "live");
  Abort(t3);
}

TEST_F(HeapTest, VacuumWithHorizonRemovesDeadHistory) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("v1")));
  Commit(t1);
  Transaction* t2 = Begin();
  ASSERT_OK(heap_->Update(t2, tid, Slice("v2")).status());
  ASSERT_OK_AND_ASSIGN(CommitTime t_del, txns_->Commit(t2));
  // Vacuum with horizon at the delete time reclaims the old version.
  ASSERT_OK_AND_ASSIGN(uint64_t removed, heap_->Vacuum(clog_, t_del));
  EXPECT_EQ(removed, 1u);
  Transaction* t3 = Begin();
  auto rows = VisibleRows(t3);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], "v2");
  Abort(t3);
}

TEST_F(HeapTest, GetAnyVersionIgnoresVisibility) {
  Transaction* t1 = Begin();
  ASSERT_OK_AND_ASSIGN(Tid tid, heap_->Insert(t1, Slice("ghost")));
  Abort(t1);
  ASSERT_OK_AND_ASSIGN(auto version, heap_->GetAnyVersion(tid));
  EXPECT_EQ(Slice(version.second).ToString(), "ghost");
  EXPECT_NE(version.first.xmin, kInvalidXid);
}

// Property sweep: interleaved transactional edits against a reference map,
// verified at multiple historical snapshots.
class HeapMvccFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeapMvccFuzz, HistoryIsConsistent) {
  TempDir dir;
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 64);
  CommitLog clog;
  ASSERT_OK(clog.Open(dir.Sub("clog")));
  TxnManager txns(&clog, &pool);
  RelFileId file{0, 1};
  ASSERT_OK(HeapClass::Create(&pool, file));
  HeapClass heap(&pool, file);

  Random rng(GetParam());
  // Reference: committed state snapshots, keyed by commit time.
  std::map<std::string, Tid> live;  // payload -> tid
  std::vector<std::pair<CommitTime, std::vector<std::string>>> history;

  for (int round = 0; round < 30; ++round) {
    Transaction* txn = txns.Begin();
    std::map<std::string, Tid> staged = live;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      if (staged.empty() || rng.OneInHundred(60)) {
        std::string payload =
            "row-" + std::to_string(round) + "-" + std::to_string(e);
        ASSERT_OK_AND_ASSIGN(Tid tid, heap.Insert(txn, Slice(payload)));
        staged[payload] = tid;
      } else {
        auto it = staged.begin();
        std::advance(it, rng.Uniform(staged.size()));
        ASSERT_OK(heap.Delete(txn, it->second));
        staged.erase(it);
      }
    }
    if (rng.OneInHundred(30)) {
      ASSERT_OK(txns.Abort(txn));  // reference state unchanged
    } else {
      ASSERT_OK_AND_ASSIGN(CommitTime time, txns.Commit(txn));
      live = staged;
      std::vector<std::string> rows;
      for (const auto& [payload, tid] : live) rows.push_back(payload);
      history.emplace_back(time, rows);
    }
  }

  // Every recorded historical state must be reproducible via time travel.
  for (const auto& [time, expected] : history) {
    Transaction* historical = txns.BeginAsOf(time);
    std::vector<std::string> got = VisibleRows(&heap, historical);
    std::sort(got.begin(), got.end());
    std::vector<std::string> want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "as of " << time;
    ASSERT_OK(txns.Abort(historical));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapMvccFuzz,
                         ::testing::Values(7, 42, 1234, 777, 31337));

}  // namespace
}  // namespace pglo

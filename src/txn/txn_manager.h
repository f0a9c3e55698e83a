#ifndef PGLO_TXN_TXN_MANAGER_H_
#define PGLO_TXN_TXN_MANAGER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/event_log.h"
#include "obs/wait_event.h"
#include "storage/buffer_pool.h"
#include "txn/commit_log.h"
#include "txn/transaction.h"

namespace pglo {

/// Allocates XIDs and drives the commit protocol.
///
/// Commit protocol (force-at-commit, no WAL — the POSTGRES storage system):
///   1. flush every dirty buffer (the transaction's new tuple versions
///      reach stable storage),
///   2. durably append the commit record.
/// A crash between the steps leaves the XID unrecorded, which the commit
/// log reports as aborted, so the flushed-but-uncommitted versions are
/// invisible: atomicity without undo.
///
/// Thread-safe: backends (Sessions) begin, commit, and abort concurrently.
/// Commits serialize — each force flushes the whole pool — either behind a
/// plain mutex (default, preserving the single-stream sequence exactly) or
/// through the group-commit queue (SetGroupCommit), where one leader
/// flushes once and appends every waiting committer's record in a single
/// pwrite + fdatasync. Other backends' work overlaps a force: its
/// write-back holds no buffer-pool latch while it writes.
class TxnManager {
 public:
  TxnManager(CommitLog* clog, BufferPool* pool)
      : clog_(clog), pool_(pool) {}
  ~TxnManager();
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// Restores the XID allocator after reopening a database.
  void RestoreNextXid() {
    std::lock_guard<std::mutex> lock(mu_);
    Xid max = clog_->MaxRecordedXid();
    if (max >= next_xid_) next_xid_ = max + 1;
  }

  /// Persists the XID high-water mark to `path` (written without fsync on
  /// every Begin; a slack is added at open). Without this, an XID handed
  /// to a transaction that crashed before writing any commit-log record
  /// could be reissued — and the crashed transaction's tuples would look
  /// like the new transaction's own writes.
  Status OpenXidFile(const std::string& path);

  /// Enables group commit (DESIGN.md §13). Configuration-time only; off by
  /// default, which keeps single-stream commit behavior bit-identical.
  void SetGroupCommit(bool enabled) { group_commit_ = enabled; }
  bool group_commit() const { return group_commit_; }

  /// Starts a read-write transaction with a "current" snapshot.
  Transaction* Begin();

  /// Starts a read-only time-travel transaction whose reads observe the
  /// database exactly as committed at tick `as_of`.
  Transaction* BeginAsOf(CommitTime as_of);

  /// Commits: forces dirty pages, then durably records the commit.
  /// Returns the transaction's commit time and destroys the Transaction on
  /// success. A pointer that is not an in-progress transaction of this
  /// manager (double commit, use after commit) is rejected without being
  /// dereferenced.
  Result<CommitTime> Commit(Transaction* txn);

  /// Aborts: records the abort; data pages are untouched. Destroys the
  /// Transaction even when the abort record cannot be written (the error
  /// is returned): with no commit record it is aborted either way.
  Status Abort(Transaction* txn);

  /// The latest commit tick — the "now" that time-travel queries address.
  CommitTime Now() const { return clog_->Now(); }

  /// Registers an extra force-at-commit step, run after the buffer-pool
  /// flush and before the commit record. Database uses this to sync
  /// non-pool stores (the simulated UNIX file system) that hold committed
  /// large-object data. Configuration-time only.
  void AddCommitForceHook(std::function<Status()> hook) {
    force_hooks_.push_back(std::move(hook));
  }

  /// Structured-event sink for the transaction lifecycle (begin, commit,
  /// abort). Null = silent. Configuration-time only.
  void BindEventLog(EventLog* events) { events_ = events; }

  /// Wait instrumentation (DESIGN.md §14): the single-commit serializer
  /// reports under `txn.commit_serialize`, the group-commit queue under
  /// `clog.group_commit.follower` (waiting out a leader's round) and
  /// `clog.group_commit.gather` (the leader's bounded refill wait).
  /// Configuration-time only.
  void BindWaits(const WaitStatsTable* waits) {
    if (waits == nullptr) return;
    wp_commit_serialize_ = waits->point(WaitEvent::kTxnCommitSerialize);
    wp_gc_follower_ = waits->point(WaitEvent::kGroupCommitFollower);
    wp_gc_gather_ = waits->point(WaitEvent::kGroupCommitGather);
  }

  const CommitLog& commit_log() const { return *clog_; }
  size_t active_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return active_.size();
  }

  /// Commit batches the group-commit path has formed: groups.size() is the
  /// number of leader rounds, each value the number of transactions that
  /// round committed with one flush + one log append. Empty when group
  /// commit is off. Read at quiescence.
  const std::vector<uint32_t>& group_sizes() const { return group_sizes_; }

 private:
  struct PendingCommit {
    Transaction* txn;
    bool done = false;
    Result<CommitTime> result{Status::Internal("commit pending")};
  };

  Transaction* Track(std::unique_ptr<Transaction> txn);
  /// Runs finish callbacks and destroys the transaction. Must NOT be
  /// called with mu_ held (callbacks reach into other subsystems).
  void Finish(Transaction* txn, bool committed);
  Xid AllocateXidLocked();
  bool IsActive(Transaction* txn) const;
  /// The force-at-commit steps: pool flush + registered hooks.
  Status ForceAll();
  Result<CommitTime> CommitSingle(Transaction* txn);
  Result<CommitTime> CommitGrouped(Transaction* txn);

  CommitLog* clog_;
  BufferPool* pool_;
  mutable std::mutex mu_;  ///< next_xid_, xid file, active_
  Xid next_xid_ = kFirstNormalXid;
  int xid_fd_ = -1;
  std::unordered_map<Transaction*, std::unique_ptr<Transaction>> active_;
  std::vector<std::function<Status()>> force_hooks_;
  EventLog* events_ = nullptr;
  const WaitPoint* wp_commit_serialize_ = nullptr;
  const WaitPoint* wp_gc_follower_ = nullptr;
  const WaitPoint* wp_gc_gather_ = nullptr;

  bool group_commit_ = false;
  std::mutex commit_mu_;  ///< serializes the non-grouped commit sequence
  // Group-commit queue (guarded by gc_mu_): committers enqueue themselves;
  // whoever finds no leader running becomes leader and commits the whole
  // queue in one force + one batched log append.
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  std::deque<PendingCommit*> gc_queue_;
  bool gc_leader_active_ = false;
  /// Size of the previous batch (guarded by gc_mu_). The next leader
  /// gathers — briefly waits for the queue to refill to this size — before
  /// draining, so steady-state batches track the live committer count
  /// instead of collapsing to whoever raced in first.
  size_t gc_last_batch_ = 0;
  std::vector<uint32_t> group_sizes_;  ///< guarded by gc_mu_
};

}  // namespace pglo

#endif  // PGLO_TXN_TXN_MANAGER_H_

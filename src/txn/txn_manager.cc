#include "txn/txn_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/bytes.h"
#include "common/logging.h"

namespace pglo {

namespace {
constexpr Xid kXidCrashSlack = 1024;

/// Upper bound on the group-commit leader's gather wait. The ratchet in
/// CommitGrouped normally exits long before this; the cap only bites when
/// the committer population just shrank (end of a workload pass).
constexpr auto kGroupCommitGatherCap = std::chrono::microseconds(1000);
}  // namespace

TxnManager::~TxnManager() {
  if (xid_fd_ >= 0) ::close(xid_fd_);
}

Status TxnManager::OpenXidFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  xid_fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (xid_fd_ < 0) {
    return Status::IOError("cannot open xid file: " +
                           std::string(std::strerror(errno)));
  }
  uint8_t buf[4];
  if (::pread(xid_fd_, buf, sizeof(buf), 0) == sizeof(buf)) {
    Xid persisted = DecodeFixed32(buf) + kXidCrashSlack;
    if (persisted > next_xid_) next_xid_ = persisted;
  }
  return Status::OK();
}

Xid TxnManager::AllocateXidLocked() {
  Xid xid = next_xid_++;
  if (xid_fd_ >= 0) {
    uint8_t buf[4];
    EncodeFixed32(buf, next_xid_);
    // Best effort, no fsync: the slack added at open covers lost writes.
    ssize_t n = ::pwrite(xid_fd_, buf, sizeof(buf), 0);
    (void)n;
  }
  return xid;
}

Transaction* TxnManager::Track(std::unique_ptr<Transaction> txn) {
  Transaction* raw = txn.get();
  std::lock_guard<std::mutex> lock(mu_);
  active_[raw] = std::move(txn);
  return raw;
}

bool TxnManager::IsActive(Transaction* txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Membership first: a stale pointer (double commit, use after commit)
  // must be rejected without ever dereferencing it.
  auto it = active_.find(txn);
  return it != active_.end() && it->second->active();
}

Transaction* TxnManager::Begin() {
  Xid xid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    xid = AllocateXidLocked();
  }
  clog_->RecordBegin(xid);
  if (events_ != nullptr) events_->Append(EventType::kTxnBegin, "", xid);
  Snapshot snap(clog_, xid, clog_->Now());
  return Track(std::unique_ptr<Transaction>(new Transaction(xid, snap)));
}

Transaction* TxnManager::BeginAsOf(CommitTime as_of) {
  Xid xid;
  {
    std::lock_guard<std::mutex> lock(mu_);
    xid = AllocateXidLocked();
  }
  clog_->RecordBegin(xid);
  if (events_ != nullptr) {
    events_->Append(EventType::kTxnBegin, "as-of", xid, as_of);
  }
  Snapshot snap(clog_, xid, clog_->Now(), as_of);
  return Track(std::unique_ptr<Transaction>(new Transaction(xid, snap)));
}

void TxnManager::Finish(Transaction* txn, bool committed) {
  for (auto& cb : txn->finish_callbacks_) {
    cb(committed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(txn);  // destroys the Transaction
}

Status TxnManager::ForceAll() {
  // Force policy: all of this transaction's versions must be stable before
  // the commit record. Flushing everything is coarse but correct (and
  // under group commit, one flush covers the whole batch).
  PGLO_RETURN_IF_ERROR(pool_->FlushAll());
  for (auto& hook : force_hooks_) {
    PGLO_RETURN_IF_ERROR(hook());
  }
  return Status::OK();
}

Result<CommitTime> TxnManager::Commit(Transaction* txn) {
  PGLO_CHECK(txn != nullptr);
  if (!IsActive(txn)) {
    return Status::InvalidArgument("transaction already finished");
  }
  return group_commit_ ? CommitGrouped(txn) : CommitSingle(txn);
}

Result<CommitTime> TxnManager::CommitSingle(Transaction* txn) {
  WaitLockGuard commit_lock(commit_mu_, wp_commit_serialize_);
  PGLO_RETURN_IF_ERROR(ForceAll());
  PGLO_ASSIGN_OR_RETURN(CommitTime time, clog_->RecordCommit(txn->xid()));
  if (events_ != nullptr) {
    events_->Append(EventType::kTxnCommit, "", txn->xid(), time);
  }
  txn->state_ = TxnState::kCommitted;
  Finish(txn, /*committed=*/true);
  return time;
}

Result<CommitTime> TxnManager::CommitGrouped(Transaction* txn) {
  PendingCommit req{txn};
  std::unique_lock<std::mutex> lk(gc_mu_);
  gc_queue_.push_back(&req);
  gc_cv_.notify_all();  // a gathering leader may be waiting for arrivals
  // Followers wait while a leader round is in flight; the leader may
  // commit us (done) or finish a round that predates our enqueue (then we
  // take over leadership for the queue we are part of).
  if (gc_leader_active_ && !req.done) {
    WaitGuard wait(wp_gc_follower_);
    while (gc_leader_active_ && !req.done) {
      gc_cv_.wait(lk);
    }
  }
  if (req.done) return req.result;
  gc_leader_active_ = true;
  // Gather: draining the instant the first committer arrives yields
  // batches of 1–2 under load, because the other backends are still in
  // their (serialized) CPU work when the leader starts the sync path.
  // Wait — bounded — for the queue to reach the previous batch's size.
  // The ratchet self-tunes to the live committer count: an uncontended
  // stream has gc_last_batch_ <= 1 and never waits, so single-session
  // commit latency is unchanged; when the population shrinks, one capped
  // wait re-learns the smaller batch.
  if (gc_last_batch_ > 1 && gc_queue_.size() < gc_last_batch_) {
    WaitGuard wait(wp_gc_gather_);
    auto deadline = std::chrono::steady_clock::now() + kGroupCommitGatherCap;
    while (gc_queue_.size() < gc_last_batch_) {
      if (gc_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
  }
  std::vector<PendingCommit*> batch(gc_queue_.begin(), gc_queue_.end());
  gc_queue_.clear();
  group_sizes_.push_back(static_cast<uint32_t>(batch.size()));
  gc_last_batch_ = batch.size();
  lk.unlock();

  // One force pass makes every batch member's pages stable, then one
  // batched append commits them all at consecutive ticks.
  Status force = ForceAll();
  std::vector<CommitTime> times;
  Status append = force;
  if (force.ok()) {
    std::vector<Xid> xids;
    xids.reserve(batch.size());
    for (PendingCommit* p : batch) xids.push_back(p->txn->xid());
    append = clog_->RecordCommitBatch(xids, &times).status();
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingCommit* p = batch[i];
    if (append.ok()) {
      if (events_ != nullptr) {
        events_->Append(EventType::kTxnCommit, "group", p->txn->xid(),
                        times[i]);
      }
      p->txn->state_ = TxnState::kCommitted;
      Finish(p->txn, /*committed=*/true);
      p->result = times[i];
    } else {
      // The batch failed as a unit (flush or append error). Every member
      // stays active; callers may retry or abort individually.
      p->result = append;
    }
  }

  lk.lock();
  gc_leader_active_ = false;
  Result<CommitTime> my_result = req.result;
  for (PendingCommit* p : batch) p->done = true;
  gc_cv_.notify_all();
  return my_result;
}

Status TxnManager::Abort(Transaction* txn) {
  PGLO_CHECK(txn != nullptr);
  if (!IsActive(txn)) {
    return Status::InvalidArgument("transaction already finished");
  }
  // A transaction without a commit record is aborted, so one whose abort
  // record is lost (a crash) is finished all the same.
  Status s = clog_->RecordAbort(txn->xid());
  if (events_ != nullptr) events_->Append(EventType::kTxnAbort, "", txn->xid());
  txn->state_ = TxnState::kAborted;
  Finish(txn, /*committed=*/false);
  return s;
}

}  // namespace pglo

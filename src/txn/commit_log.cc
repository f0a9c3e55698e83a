#include "txn/commit_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "fault/fault_injector.h"

namespace pglo {

namespace {
// Record: xid u32 | state u8 | pad u8[3] | commit_time u64 | crc u32
constexpr size_t kRecordSize = 20;

void EncodeRecord(uint8_t* buf, Xid xid, TxnState state, CommitTime time) {
  std::memset(buf, 0, kRecordSize);
  EncodeFixed32(buf, xid);
  buf[4] = static_cast<uint8_t>(state);
  EncodeFixed64(buf + 8, time);
  uint32_t crc = crc32c::Value(buf, kRecordSize - 4);
  EncodeFixed32(buf + kRecordSize - 4, crc32c::Mask(crc));
}

bool DecodeRecord(const uint8_t* buf, Xid* xid, TxnState* state,
                  CommitTime* time) {
  uint32_t stored = DecodeFixed32(buf + kRecordSize - 4);
  if (crc32c::Unmask(stored) != crc32c::Value(buf, kRecordSize - 4)) {
    return false;
  }
  *xid = DecodeFixed32(buf);
  *state = static_cast<TxnState>(buf[4]);
  *time = DecodeFixed64(buf + 8);
  return true;
}
}  // namespace

CommitLog::~CommitLog() {
  if (fd_ >= 0) {
    Status s = Close();
    (void)s;
  }
}

size_t CommitLog::RecordSize() { return kRecordSize; }

Status CommitLog::Open(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot open commit log " + path + ": " +
                           std::strerror(errno));
  }
  path_ = path;
  entries_.clear();
  next_commit_time_ = 1;
  max_xid_ = kInvalidXid;
  // Bootstrap transaction is implicitly committed at time 0 so catalog rows
  // are visible to every snapshot.
  entries_[kBootstrapXid] = XidStatus{TxnState::kCommitted, 0};

  uint8_t rec[kRecordSize];
  off_t pos = 0;
  for (;;) {
    ssize_t n = ::pread(fd_, rec, kRecordSize, pos);
    if (n == 0) break;
    if (n != static_cast<ssize_t>(kRecordSize)) {
      // Torn tail from a crash mid-append: truncate it away.
      if (::ftruncate(fd_, pos) != 0) {
        return Status::IOError("commit log truncate failed");
      }
      break;
    }
    Xid xid;
    TxnState state;
    CommitTime time;
    if (!DecodeRecord(rec, &xid, &state, &time)) {
      if (::ftruncate(fd_, pos) != 0) {
        return Status::IOError("commit log truncate failed");
      }
      break;
    }
    entries_[xid] = XidStatus{state, time};
    if (xid > max_xid_) max_xid_ = xid;
    if (state == TxnState::kCommitted && time >= next_commit_time_) {
      next_commit_time_ = time + 1;
    }
    pos += kRecordSize;
  }
  // Everything that survived replay is durable by definition.
  appended_size_.store(static_cast<uint64_t>(pos), std::memory_order_relaxed);
  synced_size_.store(static_cast<uint64_t>(pos), std::memory_order_relaxed);
  return Status::OK();
}

Status CommitLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return Status::OK();
}

Status CommitLog::AppendEncodedLocked(const uint8_t* buf, size_t nbytes,
                                      uint64_t* end_out) {
  if (fd_ < 0) return Status::Internal("commit log not open");
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Status::IOError("commit log seek failed");
  if (injector_ != nullptr) {
    auto outcome = injector_->OnAppend("clog", nbytes);
    if (!outcome.status.ok()) {
      // A crash mid-append leaves a byte prefix of the append — possibly
      // none (clean edge), possibly all of it (durable commit the caller
      // never learned about; the harness resolves these from the replayed
      // log after reopen). For a batch, a prefix of whole records means a
      // prefix of the group survived — exactly what a real torn group
      // commit leaves.
      if (outcome.applied > 0 &&
          ::pwrite(fd_, buf, outcome.applied, end) !=
              static_cast<ssize_t>(outcome.applied)) {
        return Status::IOError("commit log torn append failed");
      }
      return outcome.status;
    }
  }
  if (::pwrite(fd_, buf, nbytes, end) != static_cast<ssize_t>(nbytes)) {
    return Status::IOError("commit log append failed");
  }
  *end_out = static_cast<uint64_t>(end) + nbytes;
  appended_size_.store(*end_out, std::memory_order_release);
  if (!synchronous_ && injector_ != nullptr) {
    // Unsynced tail: a power failure would truncate the log back to the
    // last synced size, silently aborting these "committed" transactions.
    injector_->NoteUnsynced(path_, synced_size_.load(std::memory_order_acquire));
  }
  return Status::OK();
}

Status CommitLog::AppendRecordLocked(Xid xid, TxnState state, CommitTime time,
                                     uint64_t* end_out) {
  uint8_t rec[kRecordSize];
  EncodeRecord(rec, xid, state, time);
  return AppendEncodedLocked(rec, kRecordSize, end_out);
}

Status CommitLog::SyncTo(uint64_t target) {
  if (!synchronous_) return Status::OK();
  WaitLockGuard sync_lock(sync_mu_, wp_fsync_);
  if (synced_size_.load(std::memory_order_acquire) >= target) {
    // A concurrent caller synced past our append — piggyback on its
    // fdatasync (the syscall covers the whole file).
    return Status::OK();
  }
  // Snapshot the append frontier BEFORE the syscall: everything appended up
  // to here is covered, anything appended during the sync may not be.
  uint64_t upto = appended_size_.load(std::memory_order_acquire);
  int err = 0;
  {
    // The syscall is the blocking episode that matters: the committer that
    // pays the fdatasync (instead of piggybacking) stalls right here.
    WaitGuard sync_wait(wp_fsync_, /*count_acquire=*/false);
    if (::fdatasync(fd_) != 0) err = errno;
  }
  if (err != 0) {
    return Status::IOError("commit log sync of " + path_ +
                           " failed: " + std::strerror(err));
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  synced_size_.store(upto, std::memory_order_release);
  if (injector_ != nullptr) injector_->ClearUnsynced(path_);
  return Status::OK();
}

Result<CommitTime> CommitLog::RecordCommit(Xid xid) {
  std::vector<CommitTime> times;
  return RecordCommitBatch({xid}, &times);
}

Result<CommitTime> CommitLog::RecordCommitBatch(
    const std::vector<Xid>& xids, std::vector<CommitTime>* times_out) {
  if (xids.empty()) return Status::InvalidArgument("empty commit batch");
  CommitTime first;
  uint64_t end = 0;
  {
    WaitLockGuard lock(mu_, wp_mutex_);
    first = next_commit_time_;
    std::vector<uint8_t> buf(xids.size() * kRecordSize);
    for (size_t i = 0; i < xids.size(); ++i) {
      EncodeRecord(buf.data() + i * kRecordSize, xids[i],
                   TxnState::kCommitted, first + i);
    }
    PGLO_RETURN_IF_ERROR(AppendEncodedLocked(buf.data(), buf.size(), &end));
    times_out->clear();
    times_out->reserve(xids.size());
    for (size_t i = 0; i < xids.size(); ++i) {
      CommitTime time = first + i;
      entries_[xids[i]] = XidStatus{TxnState::kCommitted, time};
      if (xids[i] > max_xid_) max_xid_ = xids[i];
      times_out->push_back(time);
    }
    next_commit_time_ = first + xids.size();
  }
  // Durability outside mu_: other backends keep resolving visibility while
  // this batch's fdatasync is in flight.
  PGLO_RETURN_IF_ERROR(SyncTo(end));
  return first;
}

Status CommitLog::RecordAbort(Xid xid) {
  // No fdatasync: an abort lost to a crash is still an abort (a missing
  // record reads as aborted), so the record rides on the next commit's sync.
  WaitLockGuard lock(mu_, wp_mutex_);
  uint64_t end = 0;
  PGLO_RETURN_IF_ERROR(
      AppendRecordLocked(xid, TxnState::kAborted, kInvalidCommitTime, &end));
  entries_[xid] = XidStatus{TxnState::kAborted, kInvalidCommitTime};
  if (xid > max_xid_) max_xid_ = xid;
  return Status::OK();
}

CommitLog::XidStatus CommitLog::Lookup(Xid xid) const {
  WaitLockGuard lock(mu_, wp_mutex_);
  auto it = entries_.find(xid);
  return it == entries_.end() ? XidStatus{} : it->second;
}

}  // namespace pglo

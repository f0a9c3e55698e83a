#ifndef PGLO_TXN_SNAPSHOT_H_
#define PGLO_TXN_SNAPSHOT_H_

#include "txn/commit_log.h"
#include "txn/xid.h"

namespace pglo {

/// Visibility rules over no-overwrite tuples.
///
/// A snapshot sees a tuple version iff its inserter is visible and its
/// deleter (if any) is not:
///   * "current" snapshots (as_of == kLatestTime) see the transaction's own
///     writes plus everything committed no later than the snapshot tick;
///   * "time travel" snapshots (§6.3/§6.4) see exactly the versions that
///     were committed as of tick `as_of`, and never the caller's own
///     in-progress writes.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(const CommitLog* clog, Xid my_xid, CommitTime snap_time,
           CommitTime as_of = kLatestTime)
      : clog_(clog), my_xid_(my_xid), snap_time_(snap_time), as_of_(as_of) {}

  bool historical() const { return as_of_ != kLatestTime; }
  CommitTime as_of() const { return as_of_; }
  Xid xid() const { return my_xid_; }

  /// Whether a tuple stamped (xmin, xmax) is visible to this snapshot.
  bool IsVisible(Xid xmin, Xid xmax) const {
    return StampVisible(xmin) && !StampVisible(xmax);
  }

  /// Commit-log state of `xid` (used for write-conflict detection).
  TxnState StateOf(Xid xid) const { return clog_->GetState(xid); }

 private:
  CommitTime Horizon() const {
    return historical() ? as_of_ : snap_time_;
  }

  /// Whether the transaction that stamped a version (as inserter or
  /// deleter) counts for this snapshot: one commit-log lookup per xid.
  bool StampVisible(Xid xid) const {
    if (xid == kInvalidXid) return false;
    if (!historical() && xid == my_xid_) return true;
    CommitLog::XidStatus status = clog_->Lookup(xid);
    return status.state == TxnState::kCommitted &&
           status.commit_time <= Horizon();
  }

  const CommitLog* clog_ = nullptr;
  Xid my_xid_ = kInvalidXid;
  CommitTime snap_time_ = 0;
  CommitTime as_of_ = kLatestTime;
};

}  // namespace pglo

#endif  // PGLO_TXN_SNAPSHOT_H_

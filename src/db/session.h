#ifndef PGLO_DB_SESSION_H_
#define PGLO_DB_SESSION_H_

#include <cstdint>

#include "common/result.h"
#include "lo/lo_manager.h"
#include "obs/wait_event.h"
#include "txn/transaction.h"
#include "txn/xid.h"

namespace pglo {

class Database;

/// One backend's connection to a Database — the multi-backend analogue of
/// the 1993 system's per-client backend process. Obtain via
/// Database::Connect(); use from ONE thread at a time (sessions are the
/// unit of concurrency: K threads → K sessions, never a shared session).
///
/// A session runs at most one transaction at a time. Commit() consumes the
/// transaction: the Transaction* obtained from Begin() is invalid
/// afterwards, and a second Commit()/Abort() without a new Begin() is
/// rejected rather than touching freed state.
///
/// The engine below (buffer pool, commit log, access methods) is shared
/// and internally synchronized; everything a session does interleaves
/// safely with other sessions' work.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts a read-write transaction. The session must not already have
  /// one in progress.
  Transaction* Begin();

  /// Starts a read-only time-travel transaction as of commit tick `as_of`.
  Transaction* BeginAsOf(CommitTime as_of);

  /// Commits the session's transaction and consumes it, then runs
  /// large-object garbage collection (§5). Returns the commit tick once the
  /// commit record is durable, even if garbage collection then fails (the
  /// failure is logged): a retry would apply the transaction twice. If the
  /// commit itself fails, the transaction is still open — Abort() it or
  /// retry.
  Result<CommitTime> Commit();

  /// Aborts and consumes the session's transaction, then runs large-object
  /// garbage collection.
  Status Abort();

  /// Forgets the in-progress transaction without an abort attempt or any
  /// commit-log record — what a power failure does to a backend. For tests
  /// that crash with a transaction in flight: abandon it, then call
  /// Database::SimulateCrashAndReopen, which discards the Transaction with
  /// the rest of volatile state. No-op between transactions.
  void Abandon();

  /// The in-progress transaction, or null between transactions. Pass this
  /// to APIs that take an explicit Transaction*.
  Transaction* txn() const { return txn_; }
  bool in_txn() const { return txn_ != nullptr; }

  // --- large objects under the session's transaction -------------------
  /// Creates a large object; requires an in-progress transaction.
  Result<Oid> CreateLo(const LoSpec& spec);
  /// Opens a descriptor under the session's transaction; closed
  /// automatically when the transaction ends.
  Result<LoDescriptor*> OpenLo(Oid oid, bool writable);
  Status CloseLo(LoDescriptor* desc);
  /// True if `oid` names a large object visible to the session's
  /// transaction.
  Result<bool> ExistsLo(Oid oid);

  Database& db() { return *db_; }
  /// Small dense id (1, 2, 3, ...) for logs and per-backend reporting.
  uint32_t backend_id() const { return backend_id_; }

  /// The session's row in the Database's activity table — current wait
  /// class, cumulative waits, txn state, and the session's only counters:
  /// transactions begun, committed and aborted (explicit aborts plus
  /// failed commits rolled back). Readable by a monitor thread while the
  /// session works (every field is atomic).
  const BackendSlot* activity_slot() const { return slot_; }

 private:
  friend class Database;
  Session(Database* db, uint32_t backend_id);

  /// The session's transaction must be in-progress; shared error otherwise.
  Status RequireTxn() const;

  /// Installs the session's WaitSlot as the calling thread's current slot.
  /// Called at construction and on every Begin, so a session constructed on
  /// one thread and driven from another (Connect on main, work on a worker)
  /// publishes its waits from the thread that actually blocks.
  void PublishThread();
  /// Starts `txn` as the session's transaction and publishes it.
  Transaction* StartTxn(Transaction* txn);
  /// Clears the session's transaction and its activity-slot state.
  void EndTxn();

  Database* db_;
  uint32_t backend_id_;
  Transaction* txn_ = nullptr;
  BackendSlot* slot_ = nullptr;  ///< owned by the Database's activity table
};

}  // namespace pglo

#endif  // PGLO_DB_SESSION_H_

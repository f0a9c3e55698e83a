#include "db/session.h"

#include "common/logging.h"
#include "db/database.h"

namespace pglo {

Session::Session(Database* db, uint32_t backend_id)
    : db_(db), backend_id_(backend_id) {
  slot_ = db_->activity().Acquire(backend_id_);
  PublishThread();
}

Session::~Session() {
  if (txn_ != nullptr) {
    // Connection dropped mid-transaction: roll back, like a backend exit.
    Status s = Abort();
    if (!s.ok()) {
      PGLO_LOG(Error) << "session abort at destruction failed: "
                      << s.ToString();
    }
  }
  if (slot_ != nullptr) {
    if (CurrentWaitSlot() == &slot_->wait) SetCurrentWaitSlot(nullptr);
    db_->activity().Release(slot_);
    slot_ = nullptr;
  }
}

void Session::PublishThread() {
  if (slot_ != nullptr) SetCurrentWaitSlot(&slot_->wait);
}

Transaction* Session::StartTxn(Transaction* txn) {
  txn_ = txn;
  if (slot_ != nullptr) {
    slot_->begun.fetch_add(1, std::memory_order_relaxed);
    slot_->xid.store(txn_->xid(), std::memory_order_relaxed);
    slot_->in_txn.store(1, std::memory_order_release);
  }
  return txn_;
}

Transaction* Session::Begin() {
  PGLO_CHECK(txn_ == nullptr);  // one transaction per session at a time
  PublishThread();
  return StartTxn(db_->txns().Begin());
}

Transaction* Session::BeginAsOf(CommitTime as_of) {
  PGLO_CHECK(txn_ == nullptr);
  PublishThread();
  return StartTxn(db_->txns().BeginAsOf(as_of));
}

Status Session::RequireTxn() const {
  if (txn_ == nullptr) {
    return Status::InvalidArgument(
        "session has no transaction in progress (Begin() first; Commit() "
        "consumes the transaction)");
  }
  return Status::OK();
}

void Session::EndTxn() {
  txn_ = nullptr;
  if (slot_ != nullptr) {
    slot_->in_txn.store(0, std::memory_order_release);
    slot_->xid.store(0, std::memory_order_relaxed);
  }
}

Result<CommitTime> Session::Commit() {
  PGLO_RETURN_IF_ERROR(RequireTxn());
  // On failure the transaction is still open; the caller aborts or retries.
  PGLO_ASSIGN_OR_RETURN(CommitTime time, db_->txns().Commit(txn_));
  // The commit record is durable and the Transaction destroyed: from here
  // the commit stands, whatever garbage collection reports.
  if (slot_ != nullptr) {
    slot_->committed.fetch_add(1, std::memory_order_relaxed);
  }
  EndTxn();
  Status gc = db_->large_objects().CollectGarbage();
  if (!gc.ok()) {
    PGLO_LOG(Warning) << "post-commit garbage collection failed: "
                      << gc.ToString();
  }
  return time;
}

Status Session::Abort() {
  PGLO_RETURN_IF_ERROR(RequireTxn());
  Status s = db_->txns().Abort(txn_);
  // Even a failed abort record leaves the transaction unusable.
  if (slot_ != nullptr) {
    slot_->aborted.fetch_add(1, std::memory_order_relaxed);
  }
  EndTxn();
  PGLO_RETURN_IF_ERROR(s);
  return db_->large_objects().CollectGarbage();
}

void Session::Abandon() { EndTxn(); }

Result<Oid> Session::CreateLo(const LoSpec& spec) {
  PGLO_RETURN_IF_ERROR(RequireTxn());
  return db_->large_objects().Create(txn_, spec);
}

Result<LoDescriptor*> Session::OpenLo(Oid oid, bool writable) {
  PGLO_RETURN_IF_ERROR(RequireTxn());
  return db_->large_objects().Open(txn_, oid, writable);
}

Status Session::CloseLo(LoDescriptor* desc) {
  return db_->large_objects().Close(desc);
}

Result<bool> Session::ExistsLo(Oid oid) {
  PGLO_RETURN_IF_ERROR(RequireTxn());
  return db_->large_objects().Exists(txn_, oid);
}

}  // namespace pglo

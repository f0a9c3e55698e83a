#include "fault/crash_harness.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/random.h"
#include "db/check.h"
#include "db/database.h"
#include "fault/fault_injector.h"
#include "inversion/inversion_fs.h"
#include "obs/trace_export.h"

namespace pglo {
namespace {

constexpr int kNumSlots = 8;
// Objects stay small enough that every per-object b-tree remains a single
// leaf: index splits are not atomic against a crash between the two page
// writes, an orthogonal (and documented) gap this harness does not probe.
constexpr uint64_t kMaxObjectBytes = 32 * 1024;

bool IsInversionSlot(int s) { return s >= 6; }
// u-file / p-file overwrite UFS bytes in place (non-transactional): only
// the setup transaction mutates them, later ops degrade to verify/delete.
bool IsFileBacked(int s) { return s == 4 || s == 5; }

const char* SlotName(int s) {
  static const char* kNames[kNumSlots] = {
      "fchunk/disk", "fchunk/worm",   "vsegment/disk+rle", "vsegment/worm",
      "ufile",       "postgres-file", "inversion:/h/f0",   "inversion:/h/f1"};
  return kNames[s];
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

struct ObjState {
  bool exists = false;
  Bytes data;
};

using Model = std::array<ObjState, kNumSlots>;

/// One deterministic replay of the workload against one database
/// directory. All decisions flow from Random(seed) consulting only the
/// in-memory model, so two Replayers with the same options execute
/// byte-identical I/O prefixes regardless of where one of them crashes.
class Replayer {
 public:
  Replayer(const CrashHarnessOptions& opts, std::string dir,
           FaultInjector* injector)
      : opts_(opts), dir_(std::move(dir)), injector_(injector),
        rng_(opts.seed) {
    inv_paths_[6] = "/h/f0";
    inv_paths_[7] = "/h/f1";
    dopts_.dir = dir_;
    dopts_.charge_devices = opts_.charge_devices;
    dopts_.buffer_pool_frames = 64;  // small pool: evictions mid-txn
    dopts_.fault_injector = injector_;
    dopts_.synchronous_commit = opts_.synchronous_commit;
  }

  Status OpenDb() {
    db_ = std::make_unique<Database>();
    PGLO_RETURN_IF_ERROR(db_->Open(dopts_));
    Attach();
    return Status::OK();
  }

  /// The whole workload: setup transaction, then concurrent pairs, with a
  /// maintenance pass (Vacuum + CompactAll + Vacuum) after each pair.
  /// Returns the injected-crash status as soon as the crash fires.
  Status Replay() {
    PGLO_RETURN_IF_ERROR(Setup());
    uint32_t pairs = std::max<uint32_t>(1, opts_.num_txns / 2);
    for (uint32_t p = 0; p < pairs; ++p) {
      PGLO_RETURN_IF_ERROR(RunPair(p));
      PGLO_RETURN_IF_ERROR(Maintain());
    }
    return Status::OK();
  }

  /// Power-cycle after an injected crash and resolve any in-doubt commit
  /// against the reopened commit log.
  Status Recover() {
    // The power failure takes the in-flight transactions with it: no abort
    // record, exactly as a crashed backend leaves them.
    for (std::unique_ptr<Session>& backend : backends_) {
      if (backend != nullptr) backend->Abandon();
    }
    if (db_->is_open()) {
      injector_->Disarm();
      PGLO_RETURN_IF_ERROR(db_->SimulateCrashAndReopen());
    } else {
      // The crash landed inside Database::Open. Destroy the half-built
      // instance while the injector is still armed-and-crashed, so
      // destructor-path flushes (the UFS's buffer pool flushes on
      // teardown, like every BufferPool) cannot leak post-crash state to
      // disk; then reopen cleanly.
      for (std::unique_ptr<Session>& backend : backends_) backend.reset();
      db_.reset();
      injector_->Disarm();
      PGLO_RETURN_IF_ERROR(injector_->ApplyVolatileLoss());
      db_ = std::make_unique<Database>();
      PGLO_RETURN_IF_ERROR(db_->Open(dopts_));
    }
    Attach();
    if (in_doubt_.has_value()) {
      // The crash interrupted a commit: the log record either became
      // durable or it did not. The reopened commit log is the authority.
      had_in_doubt_ = true;
      if (db_->txns().commit_log().GetState(in_doubt_->xid) ==
          TxnState::kCommitted) {
        committed_ = std::move(in_doubt_->model);
        if (in_doubt_->setup) inv_ready_ = true;
      }
      in_doubt_.reset();
    }
    return Status::OK();
  }

  /// Oracle 1: every slot matches its last-committed image. Oracle 2:
  /// CheckIntegrity reports zero problems.
  Status Verify() {
    Session& backend = *backends_[0];
    Status s = VerifySlots(backend.Begin());
    Status ab = backend.Abort();
    PGLO_RETURN_IF_ERROR(s);
    PGLO_RETURN_IF_ERROR(ab);
    PGLO_ASSIGN_OR_RETURN(IntegrityReport rep, CheckIntegrity(db_.get()));
    if (!rep.ok()) return Status::Corruption("fsck: " + rep.ToString());
    return Status::OK();
  }

  Status CloseDb() { return db_->Close(); }

  bool had_in_doubt() const { return had_in_doubt_; }

  /// Streams this replay's spans to `sink` (no-op when stats are off).
  /// Valid until the next crash/reopen discards the registry.
  void AttachTraceSink(TraceSink* sink) {
    if (db_ != nullptr && db_->stats_registry() != nullptr) {
      db_->stats_registry()->SetTraceSink(sink);
    }
  }

  /// Best-effort black-box dump of a still-open instance — used for
  /// failure modes that never pass through SimulateCrashAndReopen (which
  /// dumps on its own).
  void DumpBlackboxIfOpen(const std::string& reason) {
    if (db_ != nullptr && db_->is_open()) {
      Result<std::string> r = db_->DumpBlackbox(reason);
      (void)r;
    }
  }

 private:
  struct TxnRun {
    Session* backend = nullptr;
    Transaction* txn = nullptr;
    Model view;              // committed state + this txn's own effects
    std::vector<int> slots;  // disjoint partition within the pair
  };

  struct InDoubt {
    Xid xid = 0;
    Model model;  // what `committed_` becomes if the record survived
    bool setup = false;
  };

  /// Connects the two backends a transaction pair runs on, and the
  /// Inversion layer, to the freshly opened db_.
  void Attach() {
    for (std::unique_ptr<Session>& backend : backends_) {
      backend = db_->Connect();
    }
    inv_ = std::make_unique<InversionFs>(db_->context(),
                                         &db_->large_objects());
  }

  /// Begins a transaction on `backend` that sees the committed state.
  TxnRun StartTxn(Session* backend) {
    TxnRun tr;
    tr.backend = backend;
    tr.txn = backend->Begin();
    tr.view = committed_;
    return tr;
  }

  Status Setup() {
    TxnRun tr = StartTxn(backends_[0].get());
    PGLO_RETURN_IF_ERROR(inv_->Bootstrap(tr.txn));
    PGLO_RETURN_IF_ERROR(inv_->MkDir(tr.txn, "/h").status());
    for (int s = 0; s < kNumSlots; ++s) {
      tr.slots.push_back(s);
      PGLO_RETURN_IF_ERROR(CreateSlot(tr.txn, s));
      Bytes init = rng_.RandomBytes(rng_.Range(1, 16000));
      PGLO_RETURN_IF_ERROR(WriteSlot(tr.txn, s, 0, init));
      tr.view[s].exists = true;
      tr.view[s].data = std::move(init);
    }
    return FinishTxn(tr, /*force_commit=*/true, /*setup=*/true);
  }

  /// Maintenance between transaction pairs: Vacuum (whose final act
  /// persists the free-space map sidecar) and online compaction, then a
  /// second Vacuum to reclaim the versions compaction vacated. All three
  /// mutate only physical placement — every committed image is unchanged —
  /// so the model needs no update. The point of running them mid-workload
  /// is that their stable-storage writes (FSM sidecar pages, relocated
  /// chunk inserts, index flips, reclaim rewrites) become enumerable crash
  /// points like any other write, probing recovery across FSM and
  /// compaction ticks.
  Status Maintain() {
    PGLO_RETURN_IF_ERROR(db_->large_objects().Vacuum(db_->Now()).status());
    PGLO_RETURN_IF_ERROR(db_->large_objects().CompactAll().status());
    return db_->large_objects().Vacuum(db_->Now()).status();
  }

  Status RunPair(uint32_t pair) {
    TxnRun t0 = StartTxn(backends_[0].get());
    TxnRun t1 = StartTxn(backends_[1].get());
    for (int s = 0; s < kNumSlots; ++s) {
      ((s + static_cast<int>(pair)) % 2 == 0 ? t0 : t1).slots.push_back(s);
    }
    // Round-robin interleave so both transactions have work in flight
    // when the crash fires.
    for (uint32_t k = 0; k < 2 * opts_.ops_per_txn; ++k) {
      TxnRun& tr = (k % 2 == 0) ? t0 : t1;
      int slot = tr.slots[rng_.Uniform(tr.slots.size())];
      PGLO_RETURN_IF_ERROR(DoOp(tr, slot));
    }
    PGLO_RETURN_IF_ERROR(FinishTxn(t0, /*force_commit=*/false, false));
    return FinishTxn(t1, /*force_commit=*/false, false);
  }

  Status DoOp(TxnRun& tr, int slot) {
    ObjState& st = tr.view[slot];
    uint64_t pick = rng_.Uniform(100);
    if (!st.exists) {
      // Deleted under this view: the slot must stay gone.
      PGLO_ASSIGN_OR_RETURN(bool exists, ExistsSlot(tr.txn, slot));
      if (exists) {
        return Status::Internal(std::string("model mismatch: deleted slot ") +
                                SlotName(slot) + " still resolves");
      }
      return Status::OK();
    }
    // File-backed kinds live in the simulated UFS, which has no crash
    // recovery of its own (the documented caveat): committed state is
    // durable via the commit-time Sync, but a crash while uncommitted
    // UFS metadata is mid-flush can tear the root directory. So after
    // setup these slots are read-verified only — writes, truncates AND
    // deletes (a delete rewrites the UFS directory at GC time) all
    // degrade to verification.
    if (IsFileBacked(slot) && pick < 90) pick = 90;
    if (pick < 45) {  // overwrite at a random in-bounds offset
      uint64_t off = rng_.Uniform(st.data.size() + 1);
      size_t len = static_cast<size_t>(rng_.Range(1, 6000));
      if (off + len > kMaxObjectBytes) {
        len = static_cast<size_t>(kMaxObjectBytes - off);
      }
      if (len == 0) len = 1;
      Bytes data = rng_.RandomBytes(len);
      PGLO_RETURN_IF_ERROR(WriteSlot(tr.txn, slot, off, data));
      if (off + len > st.data.size()) st.data.resize(off + len);
      std::copy(data.begin(), data.end(),
                st.data.begin() + static_cast<ptrdiff_t>(off));
      return Status::OK();
    }
    if (pick < 65) {  // append
      size_t len = static_cast<size_t>(rng_.Range(1, 4000));
      if (st.data.size() + len > kMaxObjectBytes) {
        len = static_cast<size_t>(kMaxObjectBytes - st.data.size());
      }
      if (len > 0) {
        uint64_t off = st.data.size();
        Bytes data = rng_.RandomBytes(len);
        PGLO_RETURN_IF_ERROR(WriteSlot(tr.txn, slot, off, data));
        st.data.insert(st.data.end(), data.begin(), data.end());
        return Status::OK();
      }
      // Object is full — fall through to verification instead.
    } else if (pick < 85) {  // truncate to a random smaller size
      uint64_t nsize = rng_.Uniform(st.data.size() + 1);
      PGLO_RETURN_IF_ERROR(TruncateSlot(tr.txn, slot, nsize));
      st.data.resize(nsize);
      return Status::OK();
    } else if (pick < 90) {  // delete (terminal for the slot)
      PGLO_RETURN_IF_ERROR(DeleteSlot(tr.txn, slot));
      st.exists = false;
      st.data.clear();
      return Status::OK();
    }
    // Read-verify against the transaction's own view.
    PGLO_ASSIGN_OR_RETURN(uint64_t size, SizeSlot(tr.txn, slot));
    if (size != st.data.size()) {
      return Status::Internal(std::string("model mismatch: slot ") +
                              SlotName(slot) + " size " +
                              std::to_string(size) + " != " +
                              std::to_string(st.data.size()));
    }
    PGLO_ASSIGN_OR_RETURN(Bytes got, ReadSlot(tr.txn, slot, size));
    if (got != st.data) {
      return Status::Internal(std::string("model mismatch: slot ") +
                              SlotName(slot) + " content diverged in-txn");
    }
    return Status::OK();
  }

  Status FinishTxn(TxnRun& tr, bool force_commit, bool setup) {
    if (!force_commit && rng_.Uniform(100) >= 70) {
      // Abort. A crash during the abort leaves the transaction aborted
      // either way (no commit record), so the model needs no update.
      return tr.backend->Abort();
    }
    Xid xid = tr.txn->xid();
    Result<CommitTime> r = tr.backend->Commit();
    if (r.ok()) {
      // Committed once the record is durable, even when the crash then
      // hit post-commit garbage collection (the next write reports it).
      Fold(tr, setup);
      return Status::OK();
    }
    if (FaultInjector::IsInjectedCrash(r.status())) {
      // The commit record may have landed in full before the tear. Stash
      // both possible worlds; Recover() asks the reopened commit log which
      // one is real.
      InDoubt d;
      d.xid = xid;
      d.model = committed_;
      for (int s : tr.slots) d.model[s] = std::move(tr.view[s]);
      d.setup = setup;
      in_doubt_ = std::move(d);
    }
    return r.status();
  }

  void Fold(TxnRun& tr, bool setup) {
    for (int s : tr.slots) committed_[s] = std::move(tr.view[s]);
    if (setup) inv_ready_ = true;
  }

  // --- slot accessors over the two surfaces ----------------------------

  Status CreateSlot(Transaction* txn, int s) {
    LoSpec spec;
    switch (s) {
      case 0: spec.kind = StorageKind::kFChunk; spec.smgr = kSmgrDisk; break;
      case 1: spec.kind = StorageKind::kFChunk; spec.smgr = kSmgrWorm; break;
      case 2:
        spec.kind = StorageKind::kVSegment;
        spec.smgr = kSmgrDisk;
        spec.codec = "rle";
        break;
      case 3: spec.kind = StorageKind::kVSegment; spec.smgr = kSmgrWorm; break;
      case 4:
        spec.kind = StorageKind::kUserFile;
        spec.ufile_path = "u0.dat";
        break;
      case 5: spec.kind = StorageKind::kPostgresFile; break;
      case 6: spec.kind = StorageKind::kFChunk; spec.smgr = kSmgrDisk; break;
      case 7: spec.kind = StorageKind::kVSegment; spec.smgr = kSmgrDisk; break;
    }
    if (IsInversionSlot(s)) {
      return inv_->Create(txn, inv_paths_[s], spec).status();
    }
    PGLO_ASSIGN_OR_RETURN(Oid oid, db_->large_objects().Create(txn, spec));
    oids_[s] = oid;
    return Status::OK();
  }

  /// Runs `op` on Inversion slot `s` through a descriptor closed when
  /// `op` returns, so every operation instantiates a fresh accessor.
  Status WithFile(Transaction* txn, int s, bool writable,
                  const std::function<Status(LoDescriptor*)>& op) {
    PGLO_ASSIGN_OR_RETURN(LoDescriptor * fh,
                          inv_->Open(txn, inv_paths_[s], writable));
    Status done = op(fh);
    PGLO_RETURN_IF_ERROR(db_->large_objects().Close(fh));
    return done;
  }

  Status WriteSlot(Transaction* txn, int s, uint64_t off, const Bytes& data) {
    if (IsInversionSlot(s)) {
      return WithFile(txn, s, /*writable=*/true, [&](LoDescriptor* fh) {
        PGLO_RETURN_IF_ERROR(
            fh->Seek(static_cast<int64_t>(off), Whence::kSet).status());
        return fh->Write(Slice(data));
      });
    }
    PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                          db_->large_objects().Instantiate(txn, oids_[s]));
    return lo->Write(txn, off, Slice(data));
  }

  Status TruncateSlot(Transaction* txn, int s, uint64_t size) {
    if (IsInversionSlot(s)) {
      return WithFile(txn, s, /*writable=*/true,
                      [&](LoDescriptor* fh) { return fh->Truncate(size); });
    }
    PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                          db_->large_objects().Instantiate(txn, oids_[s]));
    return lo->Truncate(txn, size);
  }

  Status DeleteSlot(Transaction* txn, int s) {
    if (IsInversionSlot(s)) return inv_->Remove(txn, inv_paths_[s]);
    return db_->large_objects().Unlink(txn, oids_[s]);
  }

  Result<bool> ExistsSlot(Transaction* txn, int s) {
    if (IsInversionSlot(s)) return inv_->Exists(txn, inv_paths_[s]);
    return db_->large_objects().Exists(txn, oids_[s]);
  }

  Result<uint64_t> SizeSlot(Transaction* txn, int s) {
    if (IsInversionSlot(s)) {
      uint64_t size = 0;
      PGLO_RETURN_IF_ERROR(WithFile(txn, s, /*writable=*/false,
                                    [&](LoDescriptor* fh) -> Status {
                                      PGLO_ASSIGN_OR_RETURN(size, fh->Size());
                                      return Status::OK();
                                    }));
      return size;
    }
    PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                          db_->large_objects().Instantiate(txn, oids_[s]));
    return lo->Size(txn);
  }

  Result<Bytes> ReadSlot(Transaction* txn, int s, uint64_t size) {
    Bytes buf(static_cast<size_t>(size));
    if (size == 0) return buf;
    if (IsInversionSlot(s)) {
      PGLO_RETURN_IF_ERROR(WithFile(
          txn, s, /*writable=*/false, [&](LoDescriptor* fh) -> Status {
            PGLO_ASSIGN_OR_RETURN(
                size_t n, fh->Read(static_cast<size_t>(size), buf.data()));
            if (n != size) return Status::Corruption("short inversion read");
            return Status::OK();
          }));
      return buf;
    }
    PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                          db_->large_objects().Instantiate(txn, oids_[s]));
    PGLO_ASSIGN_OR_RETURN(
        size_t n, lo->Read(txn, 0, static_cast<size_t>(size), buf.data()));
    if (n != size) return Status::Corruption("short lo read");
    return buf;
  }

  Status VerifySlots(Transaction* txn) {
    for (int s = 0; s < kNumSlots; ++s) {
      const ObjState& st = committed_[s];
      if (IsInversionSlot(s)) {
        // Without a committed bootstrap the metadata classes themselves
        // are unreachable; nothing of Inversion survived, which is the
        // correct recovered state.
        if (!inv_ready_) continue;
      } else if (oids_[s] == kInvalidOid) {
        continue;  // the replay crashed before the slot was even created
      }
      PGLO_ASSIGN_OR_RETURN(bool exists, ExistsSlot(txn, s));
      if (exists != st.exists) {
        return Status::Internal(
            std::string("recovery mismatch: slot ") + SlotName(s) +
            (st.exists ? " missing after crash (committed create/write lost)"
                       : " resolves after crash (committed delete lost)"));
      }
      if (!st.exists) continue;
      PGLO_ASSIGN_OR_RETURN(uint64_t size, SizeSlot(txn, s));
      if (size != st.data.size()) {
        return Status::Internal(
            std::string("recovery mismatch: slot ") + SlotName(s) + " size " +
            std::to_string(size) + " != committed " +
            std::to_string(st.data.size()));
      }
      PGLO_ASSIGN_OR_RETURN(Bytes got, ReadSlot(txn, s, size));
      if (got != st.data) {
        size_t at = 0;
        while (at < got.size() && got[at] == st.data[at]) ++at;
        return Status::Internal(
            std::string("recovery mismatch: slot ") + SlotName(s) +
            " diverges from committed image at byte " + std::to_string(at));
      }
    }
    return Status::OK();
  }

  const CrashHarnessOptions& opts_;
  std::string dir_;
  FaultInjector* injector_;
  Random rng_;
  DatabaseOptions dopts_;
  std::unique_ptr<Database> db_;
  /// Declared after db_: sessions disconnect before the database closes.
  std::array<std::unique_ptr<Session>, 2> backends_;
  std::unique_ptr<InversionFs> inv_;

  Model committed_{};
  std::array<Oid, kNumSlots> oids_{};  // all kInvalidOid until created
  std::array<std::string, kNumSlots> inv_paths_{};
  bool inv_ready_ = false;  // setup (bootstrap + creates) committed
  std::optional<InDoubt> in_doubt_;
  bool had_in_doubt_ = false;
};

FaultPlan MakePlan(const CrashHarnessOptions& opts, uint64_t crash_after) {
  FaultPlan plan;
  plan.seed = opts.seed;
  plan.crash_after_writes = crash_after;
  plan.torn_writes = opts.torn_writes;
  plan.transient_error_rate = opts.transient_error_rate;
  return plan;
}

std::string BlackboxIfExists(const std::string& dir) {
  std::string path = dir + "/" + Database::kBlackboxName;
  std::error_code ec;
  return std::filesystem::exists(path, ec) ? path : std::string();
}

}  // namespace

std::string CrashHarnessReport::ToString() const {
  std::string out = "crash sweep: " + std::to_string(total_points) +
                    " point(s), " + std::to_string(points_run) + " run, " +
                    std::to_string(points_crashed) + " crashed, " +
                    std::to_string(in_doubt_commits) + " in-doubt commit(s)";
  if (failures.empty()) {
    out += " — OK";
  } else {
    out += " — " + std::to_string(failures.size()) + " FAILURE(S):";
    for (const CrashPointResult& f : failures) {
      out += "\n  point " + std::to_string(f.point) + ": " + f.failure;
      if (!f.blackbox.empty()) out += "\n    blackbox: " + f.blackbox;
    }
  }
  return out;
}

Result<uint64_t> CrashHarness::CountCrashPoints() {
  std::string dir = opts_.dir + "/count";
  RemoveTree(dir);
  FaultInjector injector;
  injector.Arm(MakePlan(opts_, /*crash_after=*/0));
  Replayer replay(opts_, dir, &injector);
  PGLO_RETURN_IF_ERROR(replay.OpenDb());
  PGLO_RETURN_IF_ERROR(replay.Replay());
  // Capture the tick count before verification: verify-time evictions
  // would otherwise enumerate points the per-point replays never reach.
  uint64_t points = injector.writes_seen();
  injector.Disarm();
  // Sanity-check the harness itself: with no crash, the final state must
  // already satisfy both oracles.
  PGLO_RETURN_IF_ERROR(replay.Verify());
  PGLO_RETURN_IF_ERROR(replay.CloseDb());
  if (!opts_.keep_dirs) RemoveTree(dir);
  if (points == 0) return Status::Internal("workload produced no writes");
  return points;
}

CrashPointResult CrashHarness::RunCrashPoint(uint64_t point) {
  CrashPointResult res;
  res.point = point;
  std::string dir = opts_.dir + "/pt" + std::to_string(point);
  RemoveTree(dir);
  FaultInjector injector;
  injector.Arm(MakePlan(opts_, point));
  Replayer replay(opts_, dir, &injector);
  Status s = replay.OpenDb();
  // Optional Chrome trace of the replay up to the crash tick (--trace).
  std::unique_ptr<ChromeTraceWriter> trace;
  if (s.ok() && !opts_.trace_path.empty()) {
    Result<std::unique_ptr<ChromeTraceWriter>> tw =
        ChromeTraceWriter::Open(opts_.trace_path);
    if (tw.ok()) {
      trace = std::move(tw.value());
      trace->BeginProcess("crash-point-" + std::to_string(point));
      replay.AttachTraceSink(trace.get());
    } else if (opts_.verbose) {
      PGLO_LOG(Error) << "cannot open trace file: " << tw.status().ToString();
    }
  }
  if (s.ok()) s = replay.Replay();
  // The spans after recovery belong to a fresh registry the writer is no
  // longer attached to; everything up to the crash is already streamed.
  if (trace != nullptr) {
    Status ts = trace->Finish();
    if (!ts.ok()) PGLO_LOG(Error) << "trace finish: " << ts.ToString();
    trace.reset();
  }
  // The replay may run to completion even though the crash fired: a crash
  // during post-commit garbage collection is tolerated by design (the
  // commit record is already durable; storage reclaim is best-effort), so
  // the injector's latch — not the replay status — is the authority.
  if (!injector.crashed()) {
    res.failure = s.ok()
                      ? "crash point never fired; workload ran to completion"
                      : "replay failed before the crash: " + s.ToString();
    replay.DumpBlackboxIfOpen(res.failure);
    res.blackbox = BlackboxIfExists(dir);
    return res;
  }
  res.crash_fired = true;
  // From here on the black box is already on disk: either
  // SimulateCrashAndReopen wrote it on the way down, or the failed Open
  // did. Failing paths only need to point at it.
  s = replay.Recover();
  if (!s.ok()) {
    res.failure = "recovery failed: " + s.ToString();
    res.blackbox = BlackboxIfExists(dir);
    return res;
  }
  res.in_doubt_commit = replay.had_in_doubt();
  s = replay.Verify();
  if (!s.ok()) {
    res.failure = s.ToString();
    res.blackbox = BlackboxIfExists(dir);
    return res;
  }
  s = replay.CloseDb();
  if (!s.ok()) {
    res.failure = "post-recovery close failed: " + s.ToString();
    res.blackbox = BlackboxIfExists(dir);
    return res;
  }
  if (!opts_.keep_dirs) RemoveTree(dir);
  return res;
}

Result<CrashHarnessReport> CrashHarness::RunAll(uint64_t max_points) {
  CrashHarnessReport report;
  PGLO_ASSIGN_OR_RETURN(report.total_points, CountCrashPoints());
  uint64_t stride = 1;
  if (max_points > 0 && report.total_points > max_points) {
    stride = (report.total_points + max_points - 1) / max_points;
  }
  for (uint64_t p = 1; p <= report.total_points; p += stride) {
    CrashPointResult r = RunCrashPoint(p);
    ++report.points_run;
    if (r.crash_fired) ++report.points_crashed;
    if (r.in_doubt_commit) ++report.in_doubt_commits;
    if (opts_.verbose) {
      PGLO_LOG(Info) << "crash point " << p << "/" << report.total_points
                     << (r.ok() ? " ok" : (" FAIL: " + r.failure));
    }
    if (!r.ok()) report.failures.push_back(std::move(r));
  }
  return report;
}

}  // namespace pglo

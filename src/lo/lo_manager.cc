#include "lo/lo_manager.h"

#include "common/logging.h"
#include "lo/fchunk_lo.h"
#include "lo/ufile_lo.h"
#include "lo/vsegment_lo.h"
#include "storage/free_space_map.h"

namespace pglo {

/// Relation file of the LO catalog class (a reserved, well-known Oid).
static constexpr Oid kLoCatalogRelfile = 10;
/// The catalog always lives on the magnetic-disk storage manager.
static constexpr uint8_t kCatalogSmgr = kSmgrDisk;

std::string_view StorageKindToString(StorageKind kind) {
  switch (kind) {
    case StorageKind::kUserFile:
      return "u-file";
    case StorageKind::kPostgresFile:
      return "p-file";
    case StorageKind::kFChunk:
      return "f-chunk";
    case StorageKind::kVSegment:
      return "v-segment";
  }
  return "?";
}

Result<StorageKind> StorageKindFromString(std::string_view name) {
  if (name == "u-file" || name == "ufile") return StorageKind::kUserFile;
  if (name == "p-file" || name == "pfile") return StorageKind::kPostgresFile;
  if (name == "f-chunk" || name == "fchunk") return StorageKind::kFChunk;
  if (name == "v-segment" || name == "vsegment") {
    return StorageKind::kVSegment;
  }
  return Status::InvalidArgument("unknown storage kind: " + std::string(name));
}

Result<uint64_t> ForEachPiece(
    LargeObject* lo, Transaction* txn, size_t piece_size,
    const std::function<Status(uint64_t off, Slice piece)>& fn) {
  if (piece_size == 0) {
    return Status::InvalidArgument("piece size must be positive");
  }
  PGLO_ASSIGN_OR_RETURN(uint64_t size, lo->Size(txn));
  Bytes buf(piece_size);
  uint64_t off = 0;
  while (off < size) {
    size_t want =
        static_cast<size_t>(std::min<uint64_t>(piece_size, size - off));
    PGLO_ASSIGN_OR_RETURN(size_t n, lo->Read(txn, off, want, buf.data()));
    if (n == 0) break;
    PGLO_RETURN_IF_ERROR(fn(off, Slice(buf).Sub(0, n)));
    off += n;
  }
  return off;
}

// ---------------------------------------------------------------------------
// LoDescriptor

Result<size_t> LoDescriptor::Read(size_t n, uint8_t* buf) {
  PGLO_ASSIGN_OR_RETURN(size_t got, lo_->Read(txn_, pos_, n, buf));
  pos_ += got;
  return got;
}

Result<Bytes> LoDescriptor::Read(size_t n) {
  Bytes out(n);
  PGLO_ASSIGN_OR_RETURN(size_t got, Read(n, out.data()));
  out.resize(got);
  return out;
}

Status LoDescriptor::Write(Slice data) {
  if (!writable_) {
    return Status::PermissionDenied("descriptor opened read-only");
  }
  PGLO_RETURN_IF_ERROR(lo_->Write(txn_, pos_, data));
  pos_ += data.size();
  return Mutated();
}

Result<uint64_t> LoDescriptor::Seek(int64_t off, Whence whence) {
  int64_t base = 0;
  switch (whence) {
    case Whence::kSet:
      break;
    case Whence::kCur:
      base = static_cast<int64_t>(pos_);
      break;
    case Whence::kEnd: {
      PGLO_ASSIGN_OR_RETURN(uint64_t size, Size());
      base = static_cast<int64_t>(size);
      break;
    }
  }
  // `off` may come off the wire: overflow is an error, not a wrap.
  int64_t target = 0;
  if (__builtin_add_overflow(base, off, &target)) {
    return Status::InvalidArgument("seek offset out of range");
  }
  if (target < 0) return Status::InvalidArgument("seek before start");
  pos_ = static_cast<uint64_t>(target);
  return pos_;
}

Status LoDescriptor::Truncate(uint64_t size) {
  if (!writable_) {
    return Status::PermissionDenied("descriptor opened read-only");
  }
  PGLO_RETURN_IF_ERROR(Mutated());
  return lo_->Truncate(txn_, size);
}

Status LoDescriptor::Mutated() {
  if (!on_first_mutation_) return Status::OK();
  std::function<Status()> stamp = std::move(on_first_mutation_);
  on_first_mutation_ = nullptr;
  return stamp();
}

// ---------------------------------------------------------------------------
// LoManager

LoManager::LoManager(const DbContext& ctx)
    : ctx_(ctx), catalog_(ctx.pool, RelFileId{kCatalogSmgr, kLoCatalogRelfile}) {}

Status LoManager::Bootstrap(Transaction* txn) {
  (void)txn;
  return HeapClass::Create(ctx_.pool,
                           RelFileId{kCatalogSmgr, kLoCatalogRelfile});
}

Bytes LoManager::EncodeEntry(const CatalogEntry& e) {
  Bytes out;
  PutFixed32(&out, e.oid);
  out.push_back(static_cast<uint8_t>(e.spec.kind));
  out.push_back(e.spec.smgr);
  out.push_back(e.temp ? 1 : 0);
  PutFixed32(&out, e.spec.chunk_size);
  PutFixed32(&out, e.spec.max_segment);
  PutLengthPrefixed(&out, Slice(e.spec.codec));
  PutLengthPrefixed(&out, Slice(e.spec.ufile_path));
  // Wire order is fixed: data, index, seg_heap, seg_index, inner_data,
  // inner_index (the former files[0..5] layout).
  PutFixed32(&out, e.files.data);
  PutFixed32(&out, e.files.index);
  PutFixed32(&out, e.files.seg_heap);
  PutFixed32(&out, e.files.seg_index);
  PutFixed32(&out, e.files.inner_data);
  PutFixed32(&out, e.files.inner_index);
  return out;
}

Result<LoManager::CatalogEntry> LoManager::DecodeEntry(Slice image) {
  CatalogEntry e;
  ByteReader reader(image);
  uint32_t oid;
  if (!reader.GetFixed32(&oid)) return Status::Corruption("bad LO entry");
  e.oid = oid;
  if (reader.remaining() < 3) return Status::Corruption("bad LO entry");
  e.spec.kind = static_cast<StorageKind>(image[4]);
  e.spec.smgr = image[5];
  e.temp = image[6] != 0;
  // Re-read from offset 7 using a fresh reader.
  ByteReader rest(image.Sub(7, image.size()));
  uint32_t chunk_size, max_segment;
  Slice codec, ufile;
  if (!rest.GetFixed32(&chunk_size) || !rest.GetFixed32(&max_segment) ||
      !rest.GetLengthPrefixed(&codec) || !rest.GetLengthPrefixed(&ufile)) {
    return Status::Corruption("bad LO entry");
  }
  e.spec.chunk_size = chunk_size;
  e.spec.max_segment = max_segment;
  e.spec.codec = codec.ToString();
  e.spec.ufile_path = ufile.ToString();
  for (Oid* f : {&e.files.data, &e.files.index, &e.files.seg_heap,
                 &e.files.seg_index, &e.files.inner_data,
                 &e.files.inner_index}) {
    uint32_t v;
    if (!rest.GetFixed32(&v)) return Status::Corruption("bad LO entry");
    *f = v;
  }
  return e;
}

Result<bool> LoManager::ScanCatalog(Transaction* txn,
                                    const EntryVisitor& visit) {
  return catalog_.Scan(txn, [&](Tid tid, Slice row) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(CatalogEntry entry, DecodeEntry(row));
    return visit(entry, tid);
  });
}

Result<std::pair<LoManager::CatalogEntry, Tid>> LoManager::FindEntry(
    Transaction* txn, Oid oid) {
  std::pair<CatalogEntry, Tid> found;
  auto match = [&](const CatalogEntry& entry, Tid tid) -> Result<bool> {
    if (entry.oid != oid) return false;
    found = {entry, tid};
    return true;
  };
  PGLO_ASSIGN_OR_RETURN(bool hit, ScanCatalog(txn, match));
  if (!hit) {
    return Status::NotFound("no large object with oid " +
                            std::to_string(oid));
  }
  return found;
}

Result<std::unique_ptr<LargeObject>> LoManager::InstantiateEntry(
    const CatalogEntry& entry) {
  PGLO_ASSIGN_OR_RETURN(const Compressor* codec,
                        ctx_.codecs->Get(entry.spec.codec));
  switch (entry.spec.kind) {
    case StorageKind::kUserFile:
    case StorageKind::kPostgresFile:
      return std::unique_ptr<LargeObject>(
          new UfileLo(ctx_, entry.spec.ufile_path, entry.spec.kind));
    case StorageKind::kFChunk: {
      FChunkLo::Files files{RelFileId{entry.spec.smgr, entry.files.data},
                            RelFileId{entry.spec.smgr, entry.files.index}};
      return std::unique_ptr<LargeObject>(
          new FChunkLo(ctx_, files, codec, entry.spec.chunk_size));
    }
    case StorageKind::kVSegment: {
      VSegmentLo::Files files;
      files.seg_heap = RelFileId{entry.spec.smgr, entry.files.seg_heap};
      files.seg_index = RelFileId{entry.spec.smgr, entry.files.seg_index};
      files.inner.heap = RelFileId{entry.spec.smgr, entry.files.inner_data};
      files.inner.index = RelFileId{entry.spec.smgr, entry.files.inner_index};
      return std::unique_ptr<LargeObject>(
          new VSegmentLo(ctx_, files, codec, entry.spec.max_segment));
    }
  }
  return Status::Internal("unreachable storage kind");
}

Result<Oid> LoManager::CreateInternal(Transaction* txn, const LoSpec& spec,
                                      bool temp) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  // Validate the codec name up front.
  PGLO_RETURN_IF_ERROR(ctx_.codecs->Get(spec.codec).status());
  CatalogEntry entry;
  entry.oid = ctx_.oids->Allocate();
  entry.spec = spec;
  entry.temp = temp;

  switch (spec.kind) {
    case StorageKind::kUserFile: {
      if (spec.ufile_path.empty()) {
        return Status::InvalidArgument(
            "u-file large object requires ufile_path");
      }
      PGLO_RETURN_IF_ERROR(UfileLo::CreateStorage(ctx_, spec.ufile_path));
      break;
    }
    case StorageKind::kPostgresFile: {
      entry.spec.ufile_path = NewFileName(entry.oid);
      PGLO_RETURN_IF_ERROR(
          UfileLo::CreateStorage(ctx_, entry.spec.ufile_path));
      break;
    }
    case StorageKind::kFChunk: {
      PGLO_ASSIGN_OR_RETURN(FChunkLo::Files files,
                            FChunkLo::CreateStorage(ctx_, txn, spec.smgr));
      entry.files.data = files.heap.relfile;
      entry.files.index = files.index.relfile;
      break;
    }
    case StorageKind::kVSegment: {
      PGLO_ASSIGN_OR_RETURN(VSegmentLo::Files files,
                            VSegmentLo::CreateStorage(ctx_, txn, spec.smgr));
      entry.files.seg_heap = files.seg_heap.relfile;
      entry.files.seg_index = files.seg_index.relfile;
      entry.files.inner_data = files.inner.heap.relfile;
      entry.files.inner_index = files.inner.index.relfile;
      break;
    }
  }

  Bytes image = EncodeEntry(entry);
  PGLO_RETURN_IF_ERROR(catalog_.Insert(txn, Slice(image)).status());

  // If the creating transaction aborts, the catalog row never becomes
  // visible; reclaim the physical storage. Temporaries are additionally
  // unlinked after a *successful* commit (§5).
  Oid oid = entry.oid;
  txn->OnFinish([this, entry, temp, oid](bool committed) {
    if (!committed) {
      ScheduleDestroy(entry);
    } else if (temp) {
      std::lock_guard<std::mutex> lock(mu_);
      unlink_queue_.push_back(oid);
    }
  });
  return entry.oid;
}

Result<Oid> LoManager::Create(Transaction* txn, const LoSpec& spec) {
  return CreateInternal(txn, spec, /*temp=*/false);
}

Result<Oid> LoManager::CreateTemp(Transaction* txn, const LoSpec& spec) {
  return CreateInternal(txn, spec, /*temp=*/true);
}

Status LoManager::Promote(Transaction* txn, Oid oid) {
  PGLO_ASSIGN_OR_RETURN(auto found, FindEntry(txn, oid));
  CatalogEntry entry = found.first;
  if (!entry.temp) return Status::OK();
  entry.temp = false;
  Bytes image = EncodeEntry(entry);
  PGLO_RETURN_IF_ERROR(
      catalog_.Update(txn, found.second, Slice(image)).status());
  // Only a committed promotion rescues the object from the GC sweep (the
  // promotion must happen inside the transaction that created the temp,
  // before that transaction commits).
  txn->OnFinish([this, oid](bool committed) {
    if (committed) {
      std::lock_guard<std::mutex> lock(mu_);
      promoted_.insert(oid);
    }
  });
  return Status::OK();
}

Status LoManager::Unlink(Transaction* txn, Oid oid, bool destroy_storage) {
  PGLO_ASSIGN_OR_RETURN(auto found, FindEntry(txn, oid));
  PGLO_RETURN_IF_ERROR(catalog_.Delete(txn, found.second));
  if (destroy_storage) {
    CatalogEntry entry = found.first;
    txn->OnFinish([this, entry](bool committed) {
      if (committed) ScheduleDestroy(entry);
    });
  }
  return Status::OK();
}

void LoManager::ScheduleDestroy(const CatalogEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  destroy_queue_.push_back(entry);
}

Result<bool> LoManager::Exists(Transaction* txn, Oid oid) {
  Result<std::pair<CatalogEntry, Tid>> found = FindEntry(txn, oid);
  if (found.ok()) return true;
  if (found.status().IsNotFound()) return false;
  return found.status();
}

Result<std::shared_ptr<LargeObject>> LoManager::Instantiate(Transaction* txn,
                                                            Oid oid) {
  PGLO_ASSIGN_OR_RETURN(auto found, FindEntry(txn, oid));
  std::lock_guard<std::mutex> lock(mu_);
  auto [txn_it, first_in_txn] = accessors_.try_emplace(txn);
  if (first_in_txn) {
    txn->OnFinish([this, txn](bool) {
      std::lock_guard<std::mutex> lock(mu_);
      accessors_.erase(txn);
    });
  }
  std::weak_ptr<LargeObject>& shared = txn_it->second[oid];
  std::shared_ptr<LargeObject> lo = shared.lock();
  if (lo == nullptr) {
    PGLO_ASSIGN_OR_RETURN(lo, InstantiateEntry(found.first));
    shared = lo;
  }
  return lo;
}

Result<LoDescriptor*> LoManager::Open(Transaction* txn, Oid oid,
                                      bool writable) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (writable && txn->read_only()) {
    return Status::PermissionDenied(
        "cannot open for write under a time-travel snapshot");
  }
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        Instantiate(txn, oid));
  auto desc = std::unique_ptr<LoDescriptor>(
      new LoDescriptor(txn, oid, std::move(lo), writable));
  LoDescriptor* raw = desc.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    open_[raw] = std::move(desc);
  }
  txn->OnFinish([this, raw](bool) {
    std::lock_guard<std::mutex> lock(mu_);
    open_.erase(raw);
  });
  return raw;
}

Status LoManager::Close(LoDescriptor* desc) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(desc);
  if (it == open_.end()) {
    return Status::InvalidArgument("descriptor not open");
  }
  // Mark closed so the transaction-end callback becomes a no-op.
  open_.erase(it);
  return Status::OK();
}

Status LoManager::CollectGarbage() {
  // 1. Unlink committed temporaries under a fresh system transaction.
  // Queues are swapped out under the lock, then drained without it: the
  // commit below fires OnFinish callbacks that re-enter ScheduleDestroy.
  std::vector<Oid> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending.swap(unlink_queue_);
  }
  if (!pending.empty()) {
    Transaction* txn = ctx_.txns->Begin();
    bool any = false;
    for (Oid oid : pending) {
      bool was_promoted;
      {
        std::lock_guard<std::mutex> lock(mu_);
        was_promoted = promoted_.erase(oid) > 0;
      }
      if (was_promoted) continue;  // kept by Promote()
      Status s = Unlink(txn, oid, /*destroy_storage=*/true);
      if (s.ok()) {
        any = true;
      } else if (!s.IsNotFound()) {
        Status abort_status = ctx_.txns->Abort(txn);
        (void)abort_status;
        return s;
      }
    }
    if (any) {
      Status commit = ctx_.txns->Commit(txn).status();
      if (!commit.ok()) {
        Status abort_status = ctx_.txns->Abort(txn);
        (void)abort_status;
        return commit;
      }
    } else {
      PGLO_RETURN_IF_ERROR(ctx_.txns->Abort(txn));
    }
  }
  // 2. Physically reclaim queued storage.
  std::vector<CatalogEntry> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doomed.swap(destroy_queue_);
  }
  for (const CatalogEntry& entry : doomed) {
    PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                          InstantiateEntry(entry));
    Status s = lo->Destroy(nullptr);
    if (!s.ok() && !s.IsNotFound()) {
      PGLO_LOG(Warning) << "LO destroy failed: " << s.ToString();
    }
  }
  return Status::OK();
}

Result<std::vector<LoManager::ObjectInfo>> LoManager::List(Transaction* txn) {
  std::vector<ObjectInfo> out;
  auto collect = [&](const CatalogEntry& entry, Tid) -> Result<bool> {
    out.push_back(entry);
    return false;
  };
  PGLO_RETURN_IF_ERROR(ScanCatalog(txn, collect).status());
  return out;
}

Status LoManager::Migrate(Transaction* txn, Oid oid, uint8_t new_smgr) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  PGLO_RETURN_IF_ERROR(ctx_.smgrs->Get(new_smgr).status());
  PGLO_ASSIGN_OR_RETURN(auto found, FindEntry(txn, oid));
  CatalogEntry old_entry = found.first;
  if (old_entry.spec.kind == StorageKind::kUserFile ||
      old_entry.spec.kind == StorageKind::kPostgresFile) {
    return Status::NotSupported(
        "file-backed large objects live in the UNIX file system, not a "
        "storage manager");
  }
  if (old_entry.spec.smgr == new_smgr) return Status::OK();

  // Build fresh storage on the target device.
  CatalogEntry new_entry = old_entry;
  new_entry.spec.smgr = new_smgr;
  switch (old_entry.spec.kind) {
    case StorageKind::kFChunk: {
      PGLO_ASSIGN_OR_RETURN(FChunkLo::Files files,
                            FChunkLo::CreateStorage(ctx_, txn, new_smgr));
      new_entry.files.data = files.heap.relfile;
      new_entry.files.index = files.index.relfile;
      break;
    }
    case StorageKind::kVSegment: {
      PGLO_ASSIGN_OR_RETURN(VSegmentLo::Files files,
                            VSegmentLo::CreateStorage(ctx_, txn, new_smgr));
      new_entry.files.seg_heap = files.seg_heap.relfile;
      new_entry.files.seg_index = files.seg_index.relfile;
      new_entry.files.inner_data = files.inner.heap.relfile;
      new_entry.files.inner_index = files.inner.index.relfile;
      break;
    }
    default:
      return Status::Internal("unreachable storage kind");
  }

  // Stream the current contents across devices.
  PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> src,
                        InstantiateEntry(old_entry));
  PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> dst,
                        InstantiateEntry(new_entry));
  PGLO_ASSIGN_OR_RETURN(uint64_t size, src->Size(txn));
  Bytes buf(256 * 1024);
  for (uint64_t off = 0; off < size;) {
    size_t want = static_cast<size_t>(
        std::min<uint64_t>(buf.size(), size - off));
    PGLO_ASSIGN_OR_RETURN(size_t n, src->Read(txn, off, want, buf.data()));
    if (n == 0) return Status::Internal("short read during migration");
    PGLO_RETURN_IF_ERROR(dst->Write(txn, off, Slice(buf).Sub(0, n)));
    off += n;
  }

  // Swap the catalog row; reclaim the old storage once we commit, and the
  // new storage if we abort.
  Bytes image = EncodeEntry(new_entry);
  PGLO_RETURN_IF_ERROR(
      catalog_.Update(txn, found.second, Slice(image)).status());
  {
    // Later handles in this transaction address the new storage.
    std::lock_guard<std::mutex> lock(mu_);
    auto txn_it = accessors_.find(txn);
    if (txn_it != accessors_.end()) txn_it->second.erase(oid);
  }
  txn->OnFinish([this, old_entry, new_entry](bool committed) {
    ScheduleDestroy(committed ? old_entry : new_entry);
  });
  return Status::OK();
}

Result<uint64_t> LoManager::Vacuum(CommitTime horizon) {
  // Collect the surviving entries under a read snapshot, then vacuum each
  // object's heaps (vacuum itself operates below the transaction layer).
  Transaction* txn = ctx_.txns->Begin();
  Result<std::vector<CatalogEntry>> entries = List(txn);
  Status aborted = ctx_.txns->Abort(txn);
  PGLO_RETURN_IF_ERROR(entries.status());
  PGLO_RETURN_IF_ERROR(aborted);
  uint64_t removed = 0;
  for (const CatalogEntry& entry : entries.value()) {
    PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                          InstantiateEntry(entry));
    PGLO_ASSIGN_OR_RETURN(uint64_t n, lo->Vacuum(*ctx_.clog, horizon));
    removed += n;
  }
  PGLO_ASSIGN_OR_RETURN(uint64_t catalog_removed,
                        catalog_.Vacuum(*ctx_.clog, horizon));
  removed += catalog_removed;
  // Vacuum refreshed the free-space map for every relation it touched;
  // persist it now so the flush below carries the sidecar to disk and a
  // crash cannot lose what this pass learned.
  PGLO_RETURN_IF_ERROR(ctx_.pool->fsm()->Persist());
  PGLO_RETURN_IF_ERROR(ctx_.pool->FlushAll());
  return removed;
}

Result<uint64_t> LoManager::Compact(Transaction* txn, Oid oid) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        Instantiate(txn, oid));
  return lo->Compact(txn);
}

Result<uint64_t> LoManager::CompactAll() {
  Transaction* txn = ctx_.txns->Begin();
  uint64_t moved = 0;
  auto compact = [&](const CatalogEntry& entry, Tid) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(std::unique_ptr<LargeObject> lo,
                          InstantiateEntry(entry));
    PGLO_ASSIGN_OR_RETURN(uint64_t n, lo->Compact(txn));
    moved += n;
    return false;
  };
  Status walked = ScanCatalog(txn, compact).status();
  if (!walked.ok()) {
    Status abort_status = ctx_.txns->Abort(txn);
    (void)abort_status;
    return walked;
  }
  PGLO_RETURN_IF_ERROR(ctx_.txns->Commit(txn).status());
  return moved;
}

Result<LargeObject::StorageFootprint> LoManager::Footprint(Transaction* txn,
                                                           Oid oid) {
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        Instantiate(txn, oid));
  return lo->Footprint();
}

}  // namespace pglo

#include "lo/indexed_class.h"

namespace pglo {

Result<IndexedClass::Files> IndexedClass::Create(const DbContext& ctx,
                                                 uint8_t smgr) {
  Files files;
  files.heap = RelFileId{smgr, ctx.oids->Allocate()};
  files.index = RelFileId{smgr, ctx.oids->Allocate()};
  PGLO_RETURN_IF_ERROR(HeapClass::Create(ctx.pool, files.heap));
  PGLO_RETURN_IF_ERROR(Btree::Create(ctx.pool, files.index));
  return files;
}

IndexedClass::IndexedClass(const DbContext& ctx, Files files, KeyOf key_of)
    : ctx_(ctx),
      files_(files),
      heap_(ctx.pool, files.heap),
      index_(ctx.pool, files.index),
      key_of_(std::move(key_of)) {
  index_.BindStats(ctx_.stats);
}

Result<std::optional<Bytes>> IndexedClass::Resolve(Transaction* txn,
                                                   uint64_t key, Tid tid) {
  Result<Bytes> image = heap_.Get(txn, tid);
  if (!image.ok()) {
    if (image.status().IsNotFound()) return std::optional<Bytes>();
    return image.status();
  }
  PGLO_ASSIGN_OR_RETURN(std::optional<uint64_t> filed_under,
                        key_of_(Slice(image.value())));
  if (filed_under != key) return std::optional<Bytes>();
  return std::optional<Bytes>(std::move(image).value());
}

Result<std::optional<IndexedClass::Record>> IndexedClass::Get(
    Transaction* txn, uint64_t key) {
  std::optional<Record> found;
  auto resolve = [&](uint64_t, uint64_t value) -> Result<bool> {
    Tid tid = Btree::UnpackTid(value);
    PGLO_ASSIGN_OR_RETURN(std::optional<Bytes> image, Resolve(txn, key, tid));
    if (image) found = Record{tid, std::move(*image)};
    return found.has_value();
  };
  PGLO_RETURN_IF_ERROR(index_.Scan(key, key, resolve).status());
  return found;
}

Status IndexedClass::Insert(Transaction* txn, uint64_t key, Slice image) {
  PGLO_ASSIGN_OR_RETURN(Tid tid, heap_.Insert(txn, image));
  return AddEntry(key, tid);
}

Status IndexedClass::AddEntry(uint64_t key, Tid tid) {
  return index_.InsertIfAbsent(key, tid);
}

Status IndexedClass::Update(Transaction* txn, Tid tid, uint64_t key,
                            Slice image) {
  PGLO_ASSIGN_OR_RETURN(Tid new_tid, heap_.Update(txn, tid, image));
  return AddEntry(key, new_tid);
}

Status IndexedClass::Put(Transaction* txn, uint64_t key, Slice image) {
  PGLO_ASSIGN_OR_RETURN(std::optional<Record> existing, Get(txn, key));
  if (existing) return Update(txn, existing->tid, key, image);
  return Insert(txn, key, image);
}

Status IndexedClass::Delete(Transaction* txn, Tid tid) {
  return heap_.Delete(txn, tid);
}

Status IndexedClass::Scan(Transaction* txn, uint64_t first, uint64_t last,
                          const Visitor& visit) {
  std::optional<uint64_t> resolved;
  auto probe = [&](uint64_t key, uint64_t value) -> Result<bool> {
    if (resolved == key) return false;
    Tid tid = Btree::UnpackTid(value);
    PGLO_ASSIGN_OR_RETURN(std::optional<Bytes> image, Resolve(txn, key, tid));
    if (!image) return false;
    PGLO_ASSIGN_OR_RETURN(bool done, visit(key, tid, *image));
    if (done) resolved = key;
    return resolved == last;
  };
  return index_.Scan(first, last, probe).status();
}

Result<std::vector<std::pair<uint64_t, Tid>>> IndexedClass::Entries(
    Transaction* txn, uint64_t first, uint64_t last) {
  std::vector<std::pair<uint64_t, Tid>> out;
  PGLO_RETURN_IF_ERROR(
      Scan(txn, first, last,
           [&](uint64_t key, Tid tid, const Bytes&) -> Result<bool> {
             out.emplace_back(key, tid);
             return true;
           }));
  return out;
}

Result<uint64_t> IndexedClass::Vacuum(const CommitLog& clog,
                                      CommitTime horizon,
                                      Counter* pages_reclaimed) {
  uint64_t pages_emptied = 0;
  PGLO_ASSIGN_OR_RETURN(uint64_t removed,
                        heap_.Vacuum(clog, horizon, &pages_emptied));
  // Collect every stale entry first, then delete them, so the index's
  // writes, and the crash points among them, keep their order.
  std::vector<std::pair<uint64_t, uint64_t>> stale;
  auto judge = [&](uint64_t key, uint64_t value) -> Result<bool> {
    Result<std::pair<TupleHeader, Bytes>> any =
        heap_.GetAnyVersion(Btree::UnpackTid(value));
    if (!any.ok() && !any.status().IsNotFound()) return any.status();
    std::optional<uint64_t> filed_under;
    if (any.ok()) {
      PGLO_ASSIGN_OR_RETURN(filed_under, key_of_(Slice(any.value().second)));
    }
    if (filed_under != key) stale.emplace_back(key, value);
    return false;
  };
  PGLO_RETURN_IF_ERROR(index_.Scan(0, ~0ull, judge).status());
  for (const auto& [key, value] : stale) {
    Status s = index_.Delete(key, value);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  PGLO_ASSIGN_OR_RETURN(uint64_t merged, index_.MergeUnderfull());
  StatAdd(pages_reclaimed, pages_emptied + merged);
  return removed;
}

Result<uint64_t> IndexedClass::Relocate(
    Transaction* txn, const std::vector<std::pair<uint64_t, Tid>>& live,
    const Rewrite& rewrite, Counter* pages_relocated) {
  uint64_t moved = 0;
  BlockNumber prev_block = kInvalidBlock;
  for (const auto& [key, tid] : live) {
    Result<Bytes> image = heap_.Get(txn, tid);
    if (!image.ok()) {
      if (image.status().IsNotFound()) continue;
      return image.status();
    }
    if (rewrite) PGLO_RETURN_IF_ERROR(rewrite(key, &image.value()));
    PGLO_ASSIGN_OR_RETURN(Tid new_tid,
                          heap_.InsertAppend(txn, Slice(image.value())));
    PGLO_RETURN_IF_ERROR(heap_.Delete(txn, tid));
    PGLO_RETURN_IF_ERROR(AddEntry(key, new_tid));
    ++moved;
    if (new_tid.block != prev_block) {
      StatInc(pages_relocated);
      prev_block = new_tid.block;
    }
  }
  return moved;
}

Status IndexedClass::Drop() {
  ctx_.pool->DiscardFile(files_.heap, /*discard_dirty=*/true);
  ctx_.pool->DiscardFile(files_.index, /*discard_dirty=*/true);
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr,
                        ctx_.smgrs->Get(files_.heap.smgr_id));
  PGLO_RETURN_IF_ERROR(smgr->DropFile(files_.heap.relfile));
  return smgr->DropFile(files_.index.relfile);
}

Result<LargeObject::StorageFootprint> IndexedClass::Footprint() {
  LargeObject::StorageFootprint fp;
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr,
                        ctx_.smgrs->Get(files_.heap.smgr_id));
  PGLO_ASSIGN_OR_RETURN(fp.data_bytes, smgr->StorageBytes(files_.heap.relfile));
  PGLO_ASSIGN_OR_RETURN(fp.index_bytes,
                        smgr->StorageBytes(files_.index.relfile));
  return fp;
}

Conversion::Conversion(const DbContext& ctx, const Compressor* codec,
                       const std::string& stats_prefix)
    : ctx_(ctx), codec_(codec) {
  if (ctx_.stats != nullptr) {
    c_compress_ns_ = ctx_.stats->counter(stats_prefix + ".codec_compress_ns");
    c_decompress_ns_ =
        ctx_.stats->counter(stats_prefix + ".codec_decompress_ns");
  }
}

void Conversion::Charge(double instr_per_byte, uint64_t bytes, Counter* ns) {
  if (ctx_.cpu == nullptr) return;
  uint64_t before = ctx_.clock != nullptr ? ctx_.clock->NowNanos() : 0;
  ctx_.cpu->ChargePerByte(instr_per_byte, bytes);
  if (ctx_.clock != nullptr) StatAdd(ns, ctx_.clock->NowNanos() - before);
}

Result<bool> Conversion::Compress(Slice raw, Bytes* packed) {
  if (codec_ == nullptr) return false;
  PGLO_RETURN_IF_ERROR(codec_->Compress(raw, packed));
  Charge(codec_->compress_instr_per_byte(), raw.size(), c_compress_ns_);
  return packed->size() < raw.size();
}

Status Conversion::Decompress(Slice stored, bool compressed, uint32_t raw_len,
                              Bytes* out) {
  out->clear();
  if (compressed) {
    if (codec_ == nullptr) {
      return Status::Corruption("compressed data but no codec configured");
    }
    out->reserve(raw_len);
    PGLO_RETURN_IF_ERROR(codec_->Decompress(stored, raw_len, out));
    Charge(codec_->decompress_instr_per_byte(), raw_len, c_decompress_ns_);
  } else {
    out->assign(stored.data(), stored.data() + stored.size());
  }
  if (out->size() != raw_len) return Status::Corruption("raw length mismatch");
  return Status::OK();
}

}  // namespace pglo

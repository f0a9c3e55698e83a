#include "heap/heap_class.h"

#include <cstring>
#include <vector>

#include "common/logging.h"
#include "storage/free_space_map.h"

namespace pglo {

Status HeapClass::Create(BufferPool* pool, RelFileId file) {
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, pool->smgrs()->Get(file.smgr_id));
  return smgr->CreateFile(file.relfile);
}

Result<BlockNumber> HeapClass::NumBlocks() const {
  // Overlay-aware: includes pages appended in the pool but not yet
  // materialized in the storage manager.
  return pool_->NumBlocks(file_);
}

Result<Tid> HeapClass::Insert(Transaction* txn, Slice payload) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  if (payload.size() > MaxPayload()) {
    return Status::InvalidArgument("tuple payload exceeds page capacity");
  }
  Bytes image = MakeTupleImage(TupleHeader{txn->xid(), kInvalidXid}, payload);

  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks());
  // Candidate pages: the hint, then the last page, then the free-space
  // map, then a fresh page.
  BlockNumber candidates[2] = {kInvalidBlock, kInvalidBlock};
  int ncand = 0;
  if (insert_hint_ != kInvalidBlock && insert_hint_ < nblocks) {
    candidates[ncand++] = insert_hint_;
  }
  if (nblocks > 0 && (ncand == 0 || candidates[0] != nblocks - 1)) {
    candidates[ncand++] = nblocks - 1;
  }
  return InsertImage(image, candidates, ncand, /*use_fsm=*/true);
}

Result<Tid> HeapClass::InsertAppend(Transaction* txn, Slice payload) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  if (payload.size() > MaxPayload()) {
    return Status::InvalidArgument("tuple payload exceeds page capacity");
  }
  Bytes image = MakeTupleImage(TupleHeader{txn->xid(), kInvalidXid}, payload);

  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks());
  BlockNumber candidates[1] = {kInvalidBlock};
  int ncand = 0;
  if (nblocks > 0) candidates[ncand++] = nblocks - 1;
  return InsertImage(image, candidates, ncand, /*use_fsm=*/false);
}

Result<Tid> HeapClass::InsertImage(Slice image, const BlockNumber* candidates,
                                   int ncand, bool use_fsm) {
  for (int i = 0; i < ncand; ++i) {
    PGLO_ASSIGN_OR_RETURN(PageHandle handle,
                          pool_->GetPage({file_, candidates[i]}));
    SlottedPage page(handle.data());
    if (!page.IsInitialized()) continue;
    Result<uint16_t> slot = page.AddItem(image);
    if (slot.ok()) {
      handle.MarkDirty();
      pool_->fsm()->UpdateIfTracked(file_, candidates[i], page.FreeSpace());
      insert_hint_ = candidates[i];
      return Tid{candidates[i], slot.value()};
    }
  }
  if (use_fsm) {
    FreeSpaceMap* fsm = pool_->fsm();
    uint32_t needed =
        static_cast<uint32_t>(image.size()) + SlottedPage::kSlotSize;
    // The map is advisory: verify each suggestion by actually trying the
    // insert and discard entries that over-promise. Bounded so a badly
    // drifted map cannot turn one insert into a file scan.
    for (int attempt = 0; attempt < 8; ++attempt) {
      Result<BlockNumber> cand = fsm->FindPage(file_, needed);
      if (!cand.ok()) break;
      BlockNumber b = cand.value();
      bool already_probed = false;
      for (int i = 0; i < ncand; ++i) {
        if (candidates[i] == b) already_probed = true;
      }
      if (!already_probed) {
        PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, b}));
        SlottedPage page(handle.data());
        if (page.IsInitialized()) {
          Result<uint16_t> slot = page.AddItem(image);
          if (slot.ok()) {
            handle.MarkDirty();
            fsm->NoteHit();
            fsm->UpdateIfTracked(file_, b, page.FreeSpace());
            insert_hint_ = b;
            return Tid{b, slot.value()};
          }
        }
      }
      fsm->RemoveEntry(file_, b);
    }
    fsm->NoteMiss();
  }
  BlockNumber new_block;
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->NewPage(file_, &new_block));
  SlottedPage page(handle.data());
  page.Init();
  PGLO_ASSIGN_OR_RETURN(uint16_t slot, page.AddItem(image));
  handle.MarkDirty();
  insert_hint_ = new_block;
  return Tid{new_block, slot};
}

Status HeapClass::Delete(Transaction* txn, Tid tid) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, tid.block}));
  SlottedPage page(handle.data());
  PGLO_ASSIGN_OR_RETURN(Slice item, page.GetItem(tid.slot));
  if (item.size() < TupleHeader::kSize) {
    return Status::Corruption("tuple shorter than its header");
  }
  TupleHeader header = TupleHeader::Decode(item.data());
  if (!txn->snapshot().IsVisible(header.xmin, header.xmax)) {
    return Status::NotFound("tuple version not visible");
  }
  // A stale xmax from an aborted deleter may be overwritten. Any other
  // foreign xmax (in progress, or committed after our snapshot) is a
  // write-write conflict: first updater wins.
  if (header.xmax != kInvalidXid && header.xmax != txn->xid()) {
    TxnState deleter = txn->snapshot().StateOf(header.xmax);
    if (deleter != TxnState::kAborted) {
      return Status::Aborted("write-write conflict on tuple");
    }
  }
  header.xmax = txn->xid();
  // In-place stamp: same length, so OverwriteItem cannot fail for size.
  Bytes image(item.size());
  std::memcpy(image.data(), item.data(), item.size());
  header.EncodeTo(image.data());
  PGLO_RETURN_IF_ERROR(page.OverwriteItem(tid.slot, image));
  handle.MarkDirty();
  return Status::OK();
}

Result<Tid> HeapClass::Update(Transaction* txn, Tid tid, Slice payload) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  // Updating a version this same transaction created (and nobody deleted)
  // replaces it physically: intermediate states within one transaction are
  // not part of history, so keeping them would only bloat storage. This is
  // what lets bulk-loading a large object leave exactly one version per
  // chunk.
  if (txn->active() && !txn->read_only() &&
      payload.size() <= MaxPayload()) {
    PGLO_ASSIGN_OR_RETURN(PageHandle handle,
                          pool_->GetPage({file_, tid.block}));
    SlottedPage page(handle.data());
    Result<Slice> item = page.GetItem(tid.slot);
    if (item.ok() && item.value().size() >= TupleHeader::kSize) {
      TupleHeader header = TupleHeader::Decode(item.value().data());
      if (header.xmin == txn->xid() && header.xmax == kInvalidXid) {
        Bytes image = MakeTupleImage(header, payload);
        if (image.size() <= item.value().size()) {
          PGLO_RETURN_IF_ERROR(page.OverwriteItem(tid.slot, image));
          handle.MarkDirty();
          return tid;
        }
        // Larger replacement: physically retire the old copy (it can never
        // be visible to anyone else) and insert fresh, same page if it
        // fits.
        PGLO_RETURN_IF_ERROR(page.DeleteItem(tid.slot));
        handle.MarkDirty();
        Result<uint16_t> slot = page.AddItem(image);
        if (slot.ok()) {
          pool_->fsm()->UpdateIfTracked(file_, tid.block, page.FreeSpace());
          return Tid{tid.block, slot.value()};
        }
        pool_->fsm()->UpdateIfTracked(file_, tid.block,
                                      page.FreeSpaceAfterCompact());
        handle.Release();
        return Insert(txn, payload);
      }
    }
  }
  PGLO_RETURN_IF_ERROR(Delete(txn, tid));
  return Insert(txn, payload);
}

Result<Bytes> HeapClass::Get(Transaction* txn, Tid tid) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, tid.block}));
  SlottedPage page(handle.data());
  PGLO_ASSIGN_OR_RETURN(Slice item, page.GetItem(tid.slot));
  if (item.size() < TupleHeader::kSize) {
    return Status::Corruption("tuple shorter than its header");
  }
  TupleHeader header = TupleHeader::Decode(item.data());
  if (!txn->snapshot().IsVisible(header.xmin, header.xmax)) {
    return Status::NotFound("tuple version not visible");
  }
  Slice payload = item.Sub(TupleHeader::kSize, item.size());
  return payload.ToBytes();
}

Result<std::pair<TupleHeader, Bytes>> HeapClass::GetAnyVersion(Tid tid) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, tid.block}));
  SlottedPage page(handle.data());
  PGLO_ASSIGN_OR_RETURN(Slice item, page.GetItem(tid.slot));
  if (item.size() < TupleHeader::kSize) {
    return Status::Corruption("tuple shorter than its header");
  }
  TupleHeader header = TupleHeader::Decode(item.data());
  return std::make_pair(header,
                        item.Sub(TupleHeader::kSize, item.size()).ToBytes());
}

Result<uint64_t> HeapClass::Vacuum(const CommitLog& clog, CommitTime horizon,
                                   uint64_t* pages_emptied) {
  RelLatchGuard latch(pool_->rel_latches(), file_, WaitEvent::kLatchRelHeap);
  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks());
  uint64_t removed = 0;
  uint64_t emptied = 0;
  for (BlockNumber b = 0; b < nblocks; ++b) {
    PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, b}));
    SlottedPage page(handle.data());
    if (!page.IsInitialized()) continue;
    bool dirtied = false;
    uint64_t live = 0;
    uint16_t nslots = page.NumSlots();
    for (uint16_t s = 0; s < nslots; ++s) {
      Result<Slice> item = page.GetItem(s);
      if (!item.ok()) continue;
      TupleHeader h = TupleHeader::Decode(item.value().data());
      bool dead = false;
      if (clog.GetState(h.xmin) == TxnState::kAborted) {
        dead = true;  // never visible to anyone
      } else if (h.xmax != kInvalidXid) {
        CommitLog::XidStatus deleter = clog.Lookup(h.xmax);
        // Deleted before the retained-history horizon.
        dead = deleter.state == TxnState::kCommitted &&
               deleter.commit_time <= horizon;
      }
      if (dead) {
        PGLO_RETURN_IF_ERROR(page.DeleteItem(s));
        dirtied = true;
        ++removed;
      } else {
        ++live;
      }
    }
    if (dirtied) {
      page.Compact();
      handle.MarkDirty();
      if (live == 0) ++emptied;
    }
    // Vacuum is where the free-space map learns about this relation:
    // register (or refresh) every page's usable space so later inserts can
    // fill interior holes instead of only appending.
    pool_->fsm()->RecordFreeSpace(file_, b, page.FreeSpace());
  }
  if (pages_emptied != nullptr) *pages_emptied = emptied;
  return removed;
}

Result<bool> HeapClass::Scan(Transaction* txn, const Visitor& visit) {
  // One page's visible versions: their payloads back to back in `copies`.
  struct Row {
    Tid tid;
    size_t offset;
    size_t size;
  };
  std::vector<Row> rows;
  Bytes copies;
  for (BlockNumber block = 0;; ++block) {
    rows.clear();
    copies.clear();
    bool short_tuple = false;
    {
      RelLatchGuard latch(pool_->rel_latches(), file_,
                          WaitEvent::kLatchRelHeap);
      PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks());
      if (block >= nblocks) return false;
      PGLO_ASSIGN_OR_RETURN(PageHandle handle, pool_->GetPage({file_, block}));
      SlottedPage page(handle.data());
      uint16_t nslots = page.IsInitialized() ? page.NumSlots() : 0;
      for (uint16_t s = 0; s < nslots; ++s) {
        Result<Slice> item = page.GetItem(s);
        if (!item.ok()) continue;
        if (item.value().size() < TupleHeader::kSize) {
          short_tuple = true;
          break;
        }
        TupleHeader header = TupleHeader::Decode(item.value().data());
        if (!txn->snapshot().IsVisible(header.xmin, header.xmax)) continue;
        Slice payload =
            item.value().Sub(TupleHeader::kSize, item.value().size());
        rows.push_back({Tid{block, s}, copies.size(), payload.size()});
        copies.insert(copies.end(), payload.data(),
                      payload.data() + payload.size());
      }
    }
    for (const Row& row : rows) {
      Slice payload(copies.data() + row.offset, row.size);
      PGLO_ASSIGN_OR_RETURN(bool stop, visit(row.tid, payload));
      if (stop) return true;
    }
    if (short_tuple) return Status::Corruption("tuple shorter than its header");
  }
}

}  // namespace pglo

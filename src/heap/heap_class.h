#ifndef PGLO_HEAP_HEAP_CLASS_H_
#define PGLO_HEAP_HEAP_CLASS_H_

#include <functional>
#include <optional>

#include "common/result.h"
#include "heap/tuple.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "txn/transaction.h"

namespace pglo {

/// A POSTGRES class: a heap of versioned tuples in one relation file.
///
/// All mutation follows the no-overwrite discipline:
///   * Insert appends a version stamped xmin = caller.
///   * Delete stamps xmax = caller on the visible version (the only in-place
///     byte change the heap ever makes).
///   * Update = Delete(old) + Insert(new version); the new Tid is returned.
/// Old versions stay on the pages, so historical snapshots keep working.
///
/// The class does not know its schema — payloads are opaque bytes; the
/// query layer and the large-object implementations impose structure.
///
/// Multi-backend: every public operation holds the relation's exclusive
/// latch (from the pool's RelLatchRegistry) for its duration (Scan for
/// one page at a time), so two backends' operations on one class
/// serialize; visibility between their transactions is still decided by
/// snapshots. The insert hint is per-HeapClass-instance and protected by
/// the same latch.
class HeapClass {
 public:
  /// Wraps an existing relation file (create it via Create()).
  HeapClass(BufferPool* pool, RelFileId file) : pool_(pool), file_(file) {}

  /// Creates the backing relation file.
  static Status Create(BufferPool* pool, RelFileId file);

  /// Inserts a tuple version; returns its physical address. Probes the
  /// hint page and the last page, then consults the pool's free-space map
  /// for an interior page with room, then extends the file.
  Result<Tid> Insert(Transaction* txn, Slice payload);

  /// Insert that always appends at the end of the file (last page, else a
  /// fresh page), skipping the hint and the free-space map. The compactor
  /// uses this to lay relocated versions down in strictly increasing block
  /// order — filling interior holes would defeat the point.
  Result<Tid> InsertAppend(Transaction* txn, Slice payload);

  /// Deletes the version at `tid` (it must be visible to `txn`).
  Status Delete(Transaction* txn, Tid tid);

  /// Replaces the tuple at `tid` with `payload`; returns the new version's
  /// address. The old version remains for time travel.
  Result<Tid> Update(Transaction* txn, Tid tid, Slice payload);

  /// Fetches the payload at `tid` if that version is visible to `txn`.
  Result<Bytes> Get(Transaction* txn, Tid tid);

  /// Fetches the payload at `tid` regardless of visibility (returns the
  /// header too); used by vacuum-style maintenance and tests.
  Result<std::pair<TupleHeader, Bytes>> GetAnyVersion(Tid tid);

  /// Visits, in physical order, the versions `txn` sees until `visit`
  /// returns true; returns whether it did. For each page it takes the
  /// relation latch, reads the file length and pins the page once, copies
  /// out the versions `txn` sees, and releases both before visiting them,
  /// so the visitor may use this class. Visibility is therefore decided
  /// as the walk reaches a page, pages appended before then are visited,
  /// and a tuple shorter than its header is Corruption once the walk
  /// reaches it.
  using Visitor = std::function<Result<bool>(Tid tid, Slice payload)>;
  Result<bool> Scan(Transaction* txn, const Visitor& visit);

  /// Reclaims space held by versions that can never become visible again
  /// (inserted by an aborted transaction, or deleted before `horizon`).
  /// Passing horizon = 0 reclaims only aborted versions, preserving all
  /// time travel. Returns the number of versions removed. Registers every
  /// page with usable free space in the pool's free-space map; when
  /// `pages_emptied` is non-null it receives the number of pages the pass
  /// left entirely empty (reclaimable for reuse).
  Result<uint64_t> Vacuum(const CommitLog& clog, CommitTime horizon,
                          uint64_t* pages_emptied = nullptr);

  RelFileId file() const { return file_; }
  BufferPool* pool() const { return pool_; }

  /// Number of blocks currently in the relation file.
  Result<BlockNumber> NumBlocks() const;

  /// Maximum payload that fits in one tuple (page minus headers). This is
  /// what makes byte[8000] chunks one-per-page in §6.3.
  static constexpr uint32_t MaxPayload() {
    return SlottedPage::MaxItemSize() - TupleHeader::kSize;
  }

 private:
  /// Shared tail of Insert/InsertAppend: stores `image` into a page chosen
  /// from `candidates` (first fit), consulting the FSM when `use_fsm`,
  /// extending the file as a last resort. Latch already held.
  Result<Tid> InsertImage(Slice image, const BlockNumber* candidates,
                          int ncand, bool use_fsm);

  BufferPool* pool_;
  RelFileId file_;
  // Insertion hint: last page observed to have free space.
  BlockNumber insert_hint_ = kInvalidBlock;
};

}  // namespace pglo

#endif  // PGLO_HEAP_HEAP_CLASS_H_

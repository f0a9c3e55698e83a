#ifndef PGLO_BTREE_BTREE_H_
#define PGLO_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace pglo {

/// Persistent B+tree mapping uint64 keys to Tids, duplicates allowed.
///
/// This is the "secondary btree index on the data blocks" that f-chunk
/// maintains on chunk sequence numbers (§6.3) and that v-segment maintains
/// on segment locations (§6.4). Because the heap below is no-overwrite, an
/// updated chunk simply gains a second index entry; readers walk a key's
/// entries until heap visibility admits one, so the index itself needs no
/// versioning.
///
/// Layout: block 0 is a meta page (root pointer, height); other blocks are
/// nodes holding sorted fixed-size entries. Internal entries carry the
/// minimum (key, value) of their child subtree; the first entry of a node
/// acts as negative infinity. Leaves are chained left-to-right. Deletion
/// is by simple entry removal; underfull pages are merged only by
/// MergeUnderfull, which Vacuum runs after its index sweep.
///
/// Multi-backend: every public operation holds the index file's exclusive
/// relation latch from the pool's RelLatchRegistry — the same coarse
/// granularity HeapClass uses, and a deliberate match for the 1993 lock
/// table rather than per-page latch crabbing. Scan holds it for one leaf
/// at a time and never while its visitor runs, so a visitor may latch the
/// heap the entries point into. Callers that latch a heap class and its
/// index acquire heap first, index second (see DESIGN.md §13).
class Btree {
 public:
  /// Packed (block, slot) value payload.
  static uint64_t PackTid(Tid tid) {
    return (static_cast<uint64_t>(tid.block) << 16) | tid.slot;
  }
  static Tid UnpackTid(uint64_t v) {
    return Tid{static_cast<BlockNumber>(v >> 16),
               static_cast<uint16_t>(v & 0xffff)};
  }

  Btree(BufferPool* pool, RelFileId file) : pool_(pool), file_(file) {}

  /// Binds a `btree.descend` trace span (with a `btree.descend_ns`
  /// histogram) around every root-to-leaf descent, so profiler trees show
  /// index navigation separately from the page accesses it causes. Null
  /// registry = unbound (no overhead).
  void BindStats(StatsRegistry* registry) {
    if (registry == nullptr) return;
    registry_ = registry;
    h_descend_ns_ = registry->histogram("btree.descend_ns");
  }

  /// Creates the backing relation file with an empty tree (meta + one leaf).
  static Status Create(BufferPool* pool, RelFileId file);

  /// Inserts entry (key, value). Duplicate (key, value) pairs are allowed
  /// and stored once each.
  Status Insert(uint64_t key, uint64_t value);
  Status Insert(uint64_t key, Tid tid) { return Insert(key, PackTid(tid)); }

  /// Idempotent insert: an already-present (key, value) entry is OK. Used
  /// by index maintenance after in-place tuple updates, where the tuple
  /// address (and hence the index entry) may not have changed.
  Status InsertIfAbsent(uint64_t key, uint64_t value) {
    Status s = Insert(key, value);
    return s.IsAlreadyExists() ? Status::OK() : s;
  }
  Status InsertIfAbsent(uint64_t key, Tid tid) {
    return InsertIfAbsent(key, PackTid(tid));
  }

  /// Removes one exact (key, value) entry. NotFound if absent.
  Status Delete(uint64_t key, uint64_t value);

  /// Visits, in (key, value) order, the entries whose key is in
  /// [first, last] until `visit` returns true; returns whether it did.
  /// For each leaf it takes the relation latch, descends and pins the leaf
  /// once, copies out the leaf's entries in range, and releases both
  /// before visiting them. The next leaf is found by descending again to
  /// just past the last entry copied, so entries inserted, moved by a
  /// split or deleted meanwhile are neither visited twice nor skipped:
  /// every entry present for the whole walk is visited exactly once.
  using Visitor = std::function<Result<bool>(uint64_t key, uint64_t value)>;
  Result<bool> Scan(uint64_t first, uint64_t last, const Visitor& visit);

  /// Height of the tree (1 = just a leaf root).
  Result<uint32_t> Height();

  /// Total entries (a full Scan; O(n), for tests and benchmarks).
  Result<uint64_t> CountEntries();

  /// Number of blocks in the index file (Figure 1 reports index bytes).
  Result<BlockNumber> NumBlocks();

  /// Structural invariant check (used by Database::CheckIntegrity and
  /// tests): node magic, in-node entry ordering, child level decrease,
  /// parent bounds containing child minima, and a globally sorted leaf
  /// chain that holds exactly the leaf entries the tree reaches. Returns
  /// the total entry count on success.
  Result<uint64_t> CheckStructure();

  /// Vacuum-time page merging: absorbs underfull nodes into their left
  /// siblings (bottom-up, within each parent), collapses a single-child
  /// root chain, and returns emptied pages to the pool's free-space map
  /// for reuse by the next node allocation. Returns the number of pages
  /// freed. The sibling-chain skip in the read path stays as the fallback
  /// for entries left behind by plain Delete between merge passes.
  Result<uint64_t> MergeUnderfull();

 private:
  struct PathEntry {
    BlockNumber block;
    uint16_t index;  // descent position in the internal node
  };

  struct Meta {
    BlockNumber root;
    uint32_t height;
  };
  /// The meta page's root and height, in one read.
  Result<Meta> ReadMeta();
  Status SetRoot(BlockNumber root, uint32_t height);
  /// New-node allocation: recycles a page from the free-space map's
  /// free-page list when one exists (verified by its stamp), otherwise
  /// extends the file.
  Result<PageHandle> AllocateNode(BlockNumber* block_out);
  /// Post-order merge pass over the subtree rooted at `block`.
  Status MergeSubtree(BlockNumber block, uint64_t* freed);
  /// Descends to the leaf that should contain (key, value) and returns it
  /// pinned; fills `path` with the internal nodes visited (top-down) when
  /// non-null.
  Result<PageHandle> DescendToLeaf(uint64_t key, uint64_t value,
                                   std::vector<PathEntry>* path);
  Status InsertIntoParent(std::vector<PathEntry>* path, uint64_t sep_key,
                          uint64_t sep_value, BlockNumber right_child);

  BufferPool* pool_;
  RelFileId file_;
  StatsRegistry* registry_ = nullptr;
  Histogram* h_descend_ns_ = nullptr;
};

}  // namespace pglo

#endif  // PGLO_BTREE_BTREE_H_

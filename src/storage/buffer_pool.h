#ifndef PGLO_STORAGE_BUFFER_POOL_H_
#define PGLO_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "device/cpu_cost.h"
#include "obs/event_log.h"
#include "obs/stats.h"
#include "obs/wait_event.h"
#include "smgr/smgr_registry.h"
#include "storage/page.h"
#include "storage/read_ahead.h"
#include "storage/rel_latch.h"

namespace pglo {

class BufferPool;
class FreeSpaceMap;

/// RAII pin on a buffered page. While a PageHandle is live the frame cannot
/// be evicted. Call MarkDirty() after mutating the page image.
///
/// A pin also licenses the holder to read and write the page bytes; two
/// backends must not hold handles on the same page without higher-level
/// serialization (the relation latch — see DESIGN.md §13).
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  PageHandle(PageHandle&& other) noexcept { MoveFrom(std::move(other)); }
  PageHandle& operator=(PageHandle&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  ~PageHandle() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  uint8_t* data();
  const uint8_t* data() const;
  PageId page_id() const { return page_id_; }

  /// Marks the frame dirty; it will be written back before eviction or at
  /// the next flush.
  void MarkDirty();

  /// Explicitly unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame, PageId id)
      : pool_(pool), frame_(frame), page_id_(id) {}
  void MoveFrom(PageHandle&& other) {
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    other.pool_ = nullptr;
  }

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId page_id_;
};

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t readahead_pages = 0;  ///< pages prefetched ahead of a faulting scan
  uint64_t readahead_hits = 0;   ///< hits served from a prefetched frame
  uint64_t flush_pin_waits = 0;  ///< flushes that had to wait out a pin
};

/// Fixed-size page cache over the storage manager switch.
///
/// LRU replacement with pin counts. Safe for concurrent backends: one pool
/// mutex serializes all metadata transitions and write-back I/O, page bytes
/// are touched only under a pin, and flushes wait out pins held by *other*
/// threads (a flush may always write pages pinned by the calling thread,
/// which preserves the single-stream behavior exactly). A miss reads with
/// the mutex released: it picks its victims and publishes its frames
/// marked I/O-in-progress under the mutex, reads, verifies and copies
/// without it, then clears the marks; a backend that wants one of those
/// pages meanwhile waits for that read (`bufpool.io_wait`), not for the
/// pool. See DESIGN.md §13 for the full protocol.
class BufferPool {
 public:
  BufferPool(SmgrRegistry* smgrs, size_t num_frames);
  ~BufferPool();

  /// Charges `instructions` of simulated CPU per page access (pin, hash
  /// probe, latch, search) to `cpu`. Zero/null disables charging.
  /// Configuration-time only (not thread-safe against live traffic).
  void SetAccessCost(CpuCostModel* cpu, uint64_t instructions) {
    cpu_ = cpu;
    access_instructions_ = instructions;
  }

  /// Sets the sequential read-ahead window in pages. When a miss lands on
  /// the block a per-file detector expected next, the whole window is
  /// faulted with one vectored ReadBlocks into free/victim frames; the
  /// extra frames enter the LRU unpinned and evictable. Any value > 0 also
  /// turns on run-coalesced write-back (adjacent dirty pages leave in one
  /// WriteBlocks). 0 disables both, restoring the exact per-block command
  /// sequence the pool issued before vectored I/O existed.
  /// Configuration-time only.
  void SetReadAhead(uint32_t pages) { readahead_pages_ = pages; }

  /// Mirrors hit/miss/eviction/writeback accounting into `registry`
  /// counters under `<prefix>.*`, plus `<prefix>.{get,new_page,writeback}`
  /// trace spans with matching `*_ns` histograms, so the profiler can
  /// attribute page-access CPU and fault I/O to the pool rather than its
  /// caller. The database's pool binds under `bufpool`; the UFS's under
  /// `ufs.cache`. Null registry = unbound (no overhead).
  /// Configuration-time only.
  void BindStats(StatsRegistry* registry,
                 const std::string& prefix = "bufpool") {
    if (registry == nullptr) return;
    registry_ = registry;
    c_hits_ = registry->counter(prefix + ".hits");
    c_misses_ = registry->counter(prefix + ".misses");
    c_evictions_ = registry->counter(prefix + ".evictions");
    c_writebacks_ = registry->counter(prefix + ".writebacks");
    c_readahead_pages_ = registry->counter(prefix + ".readahead_pages");
    c_readahead_hits_ = registry->counter(prefix + ".readahead_hits");
    h_get_ns_ = registry->histogram(prefix + ".get_ns");
    h_new_page_ns_ = registry->histogram(prefix + ".new_page_ns");
    h_writeback_ns_ = registry->histogram(prefix + ".writeback_ns");
    span_get_ = prefix + ".get";
    span_new_page_ = prefix + ".new_page";
    span_writeback_ = prefix + ".writeback";
  }

  /// Structured-event sink: a kReadAheadRamp event records each vectored
  /// prefetch the sequential detector issues. Null = silent.
  /// Configuration-time only.
  void SetEventLog(EventLog* events) { events_ = events; }

  /// Wait instrumentation (DESIGN.md §14): every acquisition of the pool
  /// latch reports under `latch.bufpool`, the flush loop's pin wait under
  /// `bufpool.pin_wait`, a wait for another backend's in-flight read of a
  /// page under `bufpool.io_wait`, and the commit-time syncfs (mutex +
  /// syscall) under `bufpool.data_sync`. Also binds the hosted
  /// relation-latch registry.
  /// Null/unbound = raw paths. Configuration-time only.
  void BindWaits(const WaitStatsTable* waits) {
    if (waits == nullptr) return;
    wp_latch_ = waits->point(WaitEvent::kLatchBufPool);
    wp_pin_wait_ = waits->point(WaitEvent::kBufPoolPinWait);
    wp_io_wait_ = waits->point(WaitEvent::kBufPoolIoWait);
    wp_data_sync_ = waits->point(WaitEvent::kBufPoolDataSync);
    rel_latches_.BindWaits(waits);
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned handle on the given existing page, reading it from
  /// its storage manager on a miss.
  Result<PageHandle> GetPage(PageId id) { return AccessPage(id, false); }

  /// Returns a pinned, dirty handle on `id` for a caller that overwrites the
  /// whole page: never reads the storage manager (PostgreSQL's
  /// RBM_ZERO_AND_LOCK). A resident page is pinned as is; a missing one
  /// gets a zero-filled frame. Charges the page-access CPU like GetPage but
  /// counts neither a hit nor a miss, and waits out another backend's
  /// in-flight read of the page first.
  Result<PageHandle> OverwritePage(PageId id) { return AccessPage(id, true); }

  /// Allocates a new block at the end of `file`, zero-filled and pinned.
  /// The new block number is returned through `block_out`. The block is
  /// materialized in the storage manager lazily, at write-back — callers
  /// must use BufferPool::NumBlocks (not the storage manager's) to see
  /// file sizes that include pending appends.
  Result<PageHandle> NewPage(RelFileId file, BlockNumber* block_out);

  /// File length in blocks, including blocks appended via NewPage that
  /// have not reached the storage manager yet.
  Result<BlockNumber> NumBlocks(RelFileId file);

  /// Writes back all dirty frames, then forces every file written since its
  /// last force to stable storage (smgr Sync) — the durability half of a
  /// commit's force policy: a pwrite alone does not survive power loss.
  /// Snapshot semantics under concurrency: the dirty set is captured on
  /// entry; pages another backend dirties afterwards are its own commit's
  /// problem. Waits for pins held by other threads on captured frames.
  /// The syncs run OUTSIDE the pool latch (they are the longest blocking
  /// syscalls in a commit; other backends keep using the pool meanwhile)
  /// and piggyback per file: a concurrent flush that already covered this
  /// caller's writes makes the fdatasync a no-op. Under group commit one
  /// FlushAll covers the whole batch.
  Status FlushAll();

  /// Drops every frame of `file` without writing back (used by drop-class
  /// and by tests that simulate a crash losing volatile state). Waits for
  /// in-flight reads of the file to finish first.
  void DiscardFile(RelFileId file, bool discard_dirty = false);

  /// Simulates losing all volatile state: drops clean *and* dirty frames.
  /// Callers must quiesce other backends first (no pins, no reads in
  /// flight).
  void CrashDiscardAll();

  /// Copy, not reference: coherent point-in-time view under concurrency.
  BufferPoolStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = BufferPoolStats();
  }
  size_t num_frames() const { return frames_.size(); }
  SmgrRegistry* smgrs() const { return smgrs_; }

  /// Relation-latch registry shared by every access method built on this
  /// pool (heap, B-tree) — the pool is the one object they all already
  /// hold, so it hosts the registry. See rel_latch.h.
  RelLatchRegistry* rel_latches() { return &rel_latches_; }

  /// Free-space map shared by the same access methods (see
  /// free_space_map.h); hosted here for the same reason as the latch
  /// registry. Always non-null.
  FreeSpaceMap* fsm() { return fsm_.get(); }

  /// Installs a file descriptor on the filesystem holding the database
  /// files (typically the database directory). When set, FlushAll's
  /// durability pass issues ONE syncfs(2) covering every file instead of a
  /// per-file fdatasync — with K backends each owning a heap + index file,
  /// a commit batch would otherwise pay 2K serial fdatasyncs and group
  /// commit could never amortize the force. The pool does not own the fd.
  /// Configuration-time only.
  void SetSyncFile(int fd) { sync_fd_ = fd; }

 private:
  friend class PageHandle;

  struct Frame {
    PageId id;
    std::unique_ptr<uint8_t[]> data;
    // Pin bookkeeping is mutated only under mu_. The owner is the first
    // pinning thread; `pin_shared` records that a second thread pinned
    // while the count was already non-zero (then no thread may assume
    // exclusive ownership until the count returns to zero).
    uint32_t pin_count = 0;
    std::thread::id pin_owner;
    bool pin_shared = false;
    // Atomic because PageHandle::MarkDirty sets it without mu_ while
    // flush/eviction scans read it under mu_.
    std::atomic<bool> dirty{false};
    bool in_use = false;
    std::list<size_t>::iterator lru_pos;  // valid when unpinned & in_use
    bool on_lru = false;
    bool prefetched = false;  ///< installed by read-ahead, not yet accessed
    /// Published by a miss whose read is still running outside mu_: the
    /// bytes are not valid yet and belong to the reading thread.
    bool io_in_progress = false;
  };

  /// GetPage, or OverwritePage when `overwrite` is set. Takes mu_.
  Result<PageHandle> AccessPage(PageId id, bool overwrite);

  // All private helpers below assume mu_ is held.
  void Unpin(size_t frame);
  void PinLocked(size_t frame);
  void TouchLocked(size_t frame);
  /// True when writing the frame's bytes cannot race a mutator: unpinned,
  /// or pinned exclusively by the calling thread (which is in the pool,
  /// not mutating). The self-pin case is what keeps eviction and flush
  /// behavior identical to the single-stream engine.
  bool SafeToWriteLocked(const Frame& f) const {
    return f.pin_count == 0 ||
           (!f.pin_shared && f.pin_owner == std::this_thread::get_id());
  }
  /// True when every dirty frame of `file` is safe to write — the gate for
  /// eviction-path write-back, which may have to materialize appended
  /// blocks of the file other than the one it is evicting.
  bool FileWritableLocked(RelFileId file) const;
  Result<size_t> FindVictimLocked();
  /// Installs a free frame as page `id`: zero-filled, pinned and dirty
  /// (NewPage, and OverwritePage on a miss).
  void InstallFrameLocked(size_t frame, PageId id);
  /// Takes a frame of a miss's run back out of the page table (a failed
  /// read, or a read-ahead page that failed verification) and frees it.
  void UnpublishLocked(size_t frame);
  /// Blocks on io_cv_ until `done()` holds; counted under `bufpool.io_wait`
  /// when it has to wait.
  template <typename Pred>
  void WaitForIoLocked(std::unique_lock<std::mutex>& lk, Pred done);
  /// Cleans a sorted batch of cold dirty pages, starting with
  /// `victim_frame` (background-writer style clustering).
  Status WriteBackBatchLocked(size_t victim_frame);
  /// Writes back an already-sorted list of frames, skipping clean ones and
  /// coalescing adjacent dirty (file, block) runs into single WriteBlocks
  /// commands; at read-ahead window 0 every run is one block long. Only a
  /// file with a NewPage append fills the gap below a run past its end
  /// first; any other file (the UFS image, which may hold holes) has its
  /// runs written as they are.
  Status WriteBackSortedLocked(const std::vector<size_t>& sorted);
  /// Stamps checksums (on slotted pages of a manager that is not raw) and
  /// writes one run of frames of one file at consecutive blocks with a
  /// single WriteBlocks.
  Status WriteRawRunLocked(std::span<const size_t> run);
  /// Writes out any resident dirty blocks of `file` below `upto` that the
  /// storage manager does not have yet, one block per command, so a
  /// write-back never leaves a hole.
  Status EnsureMaterializedLocked(RelFileId file, BlockNumber upto);
  /// FlushAll's snapshot-flush loop; releases the lock while waiting out
  /// other threads' pins.
  Status FlushSnapshotLocked(std::unique_lock<std::mutex>& lk);
  Result<StorageManager*> SmgrFor(RelFileId file) {
    return smgrs_->Get(file.smgr_id);
  }

  SmgrRegistry* smgrs_;
  CpuCostModel* cpu_ = nullptr;
  uint64_t access_instructions_ = 0;
  StatsRegistry* registry_ = nullptr;
  EventLog* events_ = nullptr;
  Counter* c_hits_ = nullptr;
  Counter* c_misses_ = nullptr;
  Counter* c_evictions_ = nullptr;
  Counter* c_writebacks_ = nullptr;
  Counter* c_readahead_pages_ = nullptr;
  Counter* c_readahead_hits_ = nullptr;
  Histogram* h_get_ns_ = nullptr;
  Histogram* h_new_page_ns_ = nullptr;
  Histogram* h_writeback_ns_ = nullptr;
  std::string span_get_;
  std::string span_new_page_;
  std::string span_writeback_;
  const WaitPoint* wp_latch_ = nullptr;
  const WaitPoint* wp_pin_wait_ = nullptr;
  const WaitPoint* wp_io_wait_ = nullptr;
  const WaitPoint* wp_data_sync_ = nullptr;

  /// The one pool latch. Guards every field below it and write-back I/O;
  /// hits hold it for a hash probe and an LRU splice. It is released
  /// mid-flight in three places, each of which re-validates after:
  ///  - a miss, for its read. Its frames stay published with
  ///    `io_in_progress` set, so other backends neither read nor evict
  ///    them, and their bytes are written only by the reading thread;
  ///  - a wait for such a read (GetPage, DiscardFile), on io_cv_;
  ///  - the flush loop, which cv-waits for other backends' pins.
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signaled when a frame's last pin drops
  std::condition_variable io_cv_;  ///< signaled when a miss's read ends

  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t, PageIdHash> page_table_;
  /// Logical file sizes including not-yet-materialized appended blocks.
  std::unordered_map<RelFileId, BlockNumber, RelFileIdHash> pending_size_;
  std::list<size_t> lru_;  // front = least recently used, unpinned frames
  std::vector<size_t> free_frames_;
  uint32_t readahead_pages_ = 0;
  std::unordered_map<RelFileId, ReadAhead, RelFileIdHash> readahead_;
  /// Durability bookkeeping for FlushAll's sync pass: writes ever issued
  /// per file vs. writes known covered by an fdatasync. A file is due for a
  /// sync when written > synced; after syncing through write count n a
  /// flusher records synced = n. Entries are erased when the file's frames
  /// are discarded (drop), so a commit never tries to sync a dropped file.
  /// Used only when no sync_fd_ is installed; the syncfs path replaces the
  /// per-file maps with one global write epoch.
  std::unordered_map<RelFileId, uint64_t, RelFileIdHash> file_writes_;
  std::unordered_map<RelFileId, uint64_t, RelFileIdHash> file_synced_;
  /// syncfs-path durability epoch: bumped (under mu_) on every smgr write;
  /// synced_epoch_ (under data_sync_mu_) records the highest epoch known
  /// covered by a syncfs. A flusher whose captured epoch is already covered
  /// piggybacks and skips the syscall.
  int sync_fd_ = -1;
  std::atomic<uint64_t> write_epoch_{0};
  std::mutex data_sync_mu_;  ///< serializes syncfs; never nests inside mu_
  uint64_t synced_epoch_ = 0;
  /// Staging buffer for coalesced write-back; sized lazily to the largest
  /// run seen. Only touched under mu_. (A read-ahead miss stages its run in
  /// a buffer of its own, since it reads without mu_.)
  std::vector<uint8_t> write_scratch_;
  BufferPoolStats stats_;
  RelLatchRegistry rel_latches_;  ///< self-synchronized, not under mu_
  /// Self-synchronized; may call back into the pool, so the pool only
  /// touches it outside mu_ (see DiscardFile / CrashDiscardAll).
  std::unique_ptr<FreeSpaceMap> fsm_;
};

}  // namespace pglo

#endif  // PGLO_STORAGE_BUFFER_POOL_H_

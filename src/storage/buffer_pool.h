#ifndef PGLO_STORAGE_BUFFER_POOL_H_
#define PGLO_STORAGE_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
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

/// Fixed-size page cache over the storage manager switch.
///
/// LRU replacement with pin counts. Safe for concurrent backends. The page
/// table and the LRU are split into kStripes stripes by page id, each with
/// its own mutex, so a hit or an unpin takes only its page's stripe. Each
/// unpin stamps its frame from one pool-wide counter, so each stripe's LRU
/// list is in stamp order, and their stamp-ordered merge is one LRU order
/// for the whole pool, from which victims are chosen. The pool mutex
/// serializes misses, appends and the sync bookkeeping; it is the only
/// latch that inserts or removes page-table entries. Dirty victims and
/// discards freeze the pool (the pool mutex plus every stripe). Page bytes
/// are touched only under a pin, and flushes wait out pins held by *other*
/// threads (a flush may always write pages pinned by the calling thread,
/// which preserves the single-stream behavior exactly). Misses and flushes
/// do their I/O with no latch held: the frames they read or write are
/// published marked I/O-in-progress and the marks are cleared when the I/O
/// ends; a backend that wants one of those pages meanwhile waits for that
/// I/O (`bufpool.io_wait`), not for the pool. See DESIGN.md §13 for the
/// full protocol and the lock order.
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

  /// Counts hits, misses, evictions, write-backs and read-ahead pages and
  /// hits in `registry` counters under `<prefix>.*` (the pool's only
  /// counters), plus `<prefix>.{get,new_page,writeback}` trace spans with
  /// matching `*_ns` histograms, so the profiler can attribute page-access
  /// CPU and fault I/O to the pool rather than its caller. The database's
  /// pool binds under `bufpool`; the UFS's under `ufs.cache`. Null
  /// registry = unbound (nothing counts). Configuration-time only.
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

  /// Wait instrumentation (DESIGN.md §14): every acquisition of the flush
  /// mutex, the pool mutex or a stripe reports under `latch.bufpool`, the
  /// flush loop's pin wait under `bufpool.pin_wait`, a wait for another
  /// backend's in-flight read or write of a page under `bufpool.io_wait`,
  /// and the commit-time syncfs (mutex + syscall) under
  /// `bufpool.data_sync`. Also binds the hosted relation-latch registry.
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
  /// in-flight read or write of the page first.
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
  /// Flushes run one at a time. The write-back holds no pool latch: each
  /// round marks the frames it writes I/O-in-progress under every latch,
  /// writes them with none held, and clears the marks under the stripes,
  /// so other backends' hits, misses and appends proceed meanwhile. The
  /// syncs run outside the flush's turn too and piggyback: a concurrent
  /// flush that already covered this caller's writes makes the syscall a
  /// no-op. Under group commit one FlushAll covers the whole batch.
  Status FlushAll();

  /// Drops every frame of `file` without writing back (used by drop-class
  /// and by tests that simulate a crash losing volatile state). Waits for
  /// in-flight reads and writes of the file to finish first.
  void DiscardFile(RelFileId file, bool discard_dirty = false);

  /// Simulates losing all volatile state: drops clean *and* dirty frames.
  /// Callers must quiesce other backends first (no pins, no reads in
  /// flight).
  void CrashDiscardAll();

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

  /// Page-table stripes: a constant, not an option. Hits and unpins on
  /// pages of different stripes never share a latch.
  static constexpr size_t kStripeBits = 4;
  static constexpr size_t kStripes = size_t{1} << kStripeBits;
  static constexpr uint64_t kNoStamp = ~uint64_t{0};
  static constexpr size_t kNoFrame = ~size_t{0};

  struct Frame {
    PageId id;
    std::unique_ptr<uint8_t[]> data;
    // Pin bookkeeping, LRU links and the flags after `dirty` are mutated
    // only under the stripe that maps `id`; `id` and `in_use` change only
    // with the pool mutex held as well. The owner is the first pinning
    // thread; `pin_shared` records that a second thread pinned while the
    // count was already non-zero (then no thread may assume exclusive
    // ownership until the count returns to zero).
    uint32_t pin_count = 0;
    std::thread::id pin_owner;
    bool pin_shared = false;
    // Atomic because PageHandle::MarkDirty sets it with no latch while
    // flush and eviction read it under theirs.
    std::atomic<bool> dirty{false};
    bool in_use = false;
    // Links of the stripe's LRU list (kNoFrame at its ends).
    size_t lru_prev = kNoFrame;
    size_t lru_next = kNoFrame;
    bool on_lru = false;
    uint64_t lru_stamp = 0;  ///< pool-wide order of joining an LRU list
    bool prefetched = false;  ///< installed by read-ahead, not yet accessed
    /// Published by a miss whose read, or a write-back whose write, is
    /// running with no latch held: a read's bytes are not valid yet and
    /// belong to the reading thread; a write's are being stamped and
    /// written, and the frame stays dirty until the mark clears.
    bool io_in_progress = false;
  };

  /// One slice of the page table and the LRU list of its unpinned frames,
  /// on a cache line of its own.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::condition_variable io_cv;  ///< signaled when I/O of its pages ends
    /// Written only with the pool mutex held as well, so either latch
    /// suffices to look a page up.
    std::unordered_map<PageId, size_t, PageIdHash> table;
    /// The LRU list of its unpinned frames, oldest stamp first, linked
    /// through the frames (no allocation on the hit path).
    size_t lru_head = kNoFrame;
    size_t lru_tail = kNoFrame;
    /// The head's stamp (kNoStamp when empty): written under `mu`, read
    /// without it by a miss choosing the stripe to evict from.
    std::atomic<uint64_t> head_stamp{kNoStamp};
  };

  /// The pool mutex plus every stripe, taken in lock order: the pool
  /// frozen, so no page is pinned, unpinned, mapped or unmapped while it
  /// is held. With `pool_mutex` false, the stripes alone, for a caller that
  /// already holds the pool mutex. Unlock/Lock bracket a wait
  /// (AwaitEventLocked).
  class AllLatches {
   public:
    explicit AllLatches(const BufferPool* pool, bool pool_mutex = true)
        : pool_(pool), pool_mutex_(pool_mutex) {
      Lock();
    }
    ~AllLatches() {
      if (held_) Unlock();
    }
    AllLatches(const AllLatches&) = delete;
    AllLatches& operator=(const AllLatches&) = delete;
    void Lock();
    void Unlock();

   private:
    const BufferPool* pool_;
    const bool pool_mutex_;
    bool held_ = false;
  };

  /// The WriteBlocks commands of one write-back, in issue order. Each run
  /// is a slice of `frames`: consecutive blocks of one file.
  struct WritePlan {
    std::vector<size_t> frames;
    std::vector<size_t> run_ends;  ///< end of each run within `frames`
    size_t runs_written = 0;       ///< set by WriteRuns
  };

  /// GetPage, or OverwritePage when `overwrite` is set.
  Result<PageHandle> AccessPage(PageId id, bool overwrite);

  /// The stripe that maps `id`, from the high (best-mixed) bits of its hash.
  Stripe& StripeOf(const PageId& id) {
    static_assert(sizeof(size_t) == 8);
    return stripes_[PageIdHash{}(id) >> (64 - kStripeBits)];
  }
  void LockStripes() const;
  void UnlockStripes() const;

  // Stripe helpers: `s` is held and maps the frame (or page) named.
  /// Pins `id` if `s` maps it, first waiting out a read or write of it in
  /// flight (`bufpool.io_wait`); false, with `s` still held, if it is
  /// absent.
  bool PinResidentLocked(Stripe& s, std::unique_lock<std::mutex>& lk,
                         const PageId& id, bool overwrite, size_t* frame);
  void PinLocked(Stripe& s, size_t frame);
  /// Takes the frame's stripe.
  void Unpin(size_t frame);
  /// Stamps the frame and appends it to its stripe's LRU list.
  void LruAppendLocked(Stripe& s, size_t frame);
  void LruRemoveLocked(Stripe& s, size_t frame);

  // Pool helpers: the pool mutex is held (plus `s` where one is named).
  /// True when a page-table entry maps `id` (either latch suffices).
  bool Resident(const PageId& id) {
    const Stripe& s = StripeOf(id);
    return s.table.count(id) != 0;
  }
  /// A free frame, or the oldest unpinned one evicted: a clean head under
  /// its one stripe, otherwise by EvictOldestLocked. Keeps the pool mutex
  /// throughout.
  Result<size_t> FindVictimLocked();
  /// Installs a free frame as page `id`: zero-filled, pinned and dirty
  /// (NewPage, and OverwritePage on a miss).
  void InstallFrameLocked(size_t frame, PageId id);
  /// Takes a frame out of its stripe's list and table and frees it (a
  /// miss's frame whose read failed or was damaged, a discarded page).
  void FreeFrameLocked(Stripe& s, size_t frame);

  // Frozen helpers: every latch is held.
  /// Visits unpinned frames oldest first (the stamp-ordered merge of the
  /// stripe lists) until `visit` returns false. `visit` may take the frame
  /// it is given off its list.
  template <typename Visit>
  void ScanLruLocked(Visit visit);
  /// The exact LRU victim walk: the oldest clean frame, or the oldest dirty
  /// one whose file is writable, with its write-back batch. Never picks a
  /// frame whose write is in flight; when only such frames are evictable
  /// it releases `stripes` (the pool mutex stays held) until a write ends.
  Result<size_t> EvictOldestLocked(AllLatches& stripes);
  /// True when writing the frame's bytes cannot race a mutator: unpinned,
  /// or pinned exclusively by the calling thread (which is in the pool,
  /// not mutating). The self-pin case is what keeps eviction and flush
  /// behavior identical to the single-stream engine.
  bool SafeToWriteLocked(const Frame& f) const {
    return f.pin_count == 0 ||
           (!f.pin_shared && f.pin_owner == std::this_thread::get_id());
  }
  using FileSet = std::unordered_set<RelFileId, RelFileIdHash>;
  /// The files write-back must leave alone: those with a dirty frame that
  /// is not safe to write or is being written. Write-back may touch more
  /// of a file than the frames it was asked to write (gap
  /// materialization, run coalescing), so a file is writable only when
  /// all of its dirty frames are. One pass over the frames.
  FileSet UnwritableFilesLocked() const;
  /// Cleans a sorted batch of cold dirty pages of files outside
  /// `unwritable`, starting with `victim_frame` (background-writer style
  /// clustering), with the pool still frozen.
  Status WriteBackBatchLocked(size_t victim_frame, const FileSet& unwritable);
  /// Plans the write-back of an already-sorted list of frames and marks
  /// every frame it will write I/O-in-progress. Clean frames are skipped
  /// and adjacent dirty (file, block) runs coalesce into one WriteBlocks of
  /// up to 64 blocks; at read-ahead window 0 every run is one block long.
  /// A run past the end of a file with a NewPage append is preceded by the
  /// gap below it, one block per command, so a write-back never leaves a
  /// hole; any other file (the UFS image, which may hold holes) has its
  /// runs written as they are. Counts each run in `file_writes_`. An error
  /// stops the planning: the runs planned before it are still written,
  /// and the write-back then fails with it, as if it had been met between
  /// two writes.
  Status PlanWriteBackLocked(const std::vector<size_t>& sorted,
                             WritePlan* plan);
  /// The run writer: stamps checksums (on slotted pages of a manager that
  /// is not raw) and issues the plan's commands in order, stopping at the
  /// first failure. Takes no latch, so it may run with none held.
  Status WriteRuns(WritePlan* plan);
  /// Clears the plan's marks, and the dirty flags of the frames its
  /// written runs covered, and wakes their stripes' waiters. Every stripe
  /// is held.
  void FinishWriteLocked(const WritePlan& plan);
  /// FlushAll's snapshot-flush loop; releases every latch while it writes
  /// and while it waits out other threads' pins.
  Status FlushSnapshotLocked(AllLatches& all);
  /// Releases `all`, sleeps until the next event (an unpin to zero, or the
  /// end of a read or a write) and retakes it; counted under `wp`.
  void AwaitEventLocked(AllLatches& all, const WaitPoint* wp);
  /// Wakes AwaitEventLocked sleepers; one relaxed load when there are none.
  void SignalEvent();

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

  /// Serializes flushes, so a flush never syncs before writes another
  /// flush still has in flight. Lock order: flush_mu_, then mu_, then
  /// stripes in index order, then event_mu_.
  std::mutex flush_mu_;
  /// The pool mutex. Guards the fields below `stripes_` and serializes
  /// misses, appends and the planning of write-back: page-table entries
  /// are inserted and removed only under it (plus the entry's stripe).
  /// Hits and unpins never take it. A miss releases it for its read and a
  /// flush for its writes: their frames stay published with
  /// `io_in_progress` set, so other backends neither pin nor evict them,
  /// and their bytes are touched only by the thread doing the I/O.
  mutable std::mutex mu_;
  std::array<Stripe, kStripes> stripes_;
  std::atomic<uint64_t> lru_clock_{0};  ///< next LRU stamp
  std::mutex event_mu_;
  std::condition_variable event_cv_;
  uint64_t event_seq_ = 0;  ///< under event_mu_; bumped by each signal
  std::atomic<uint32_t> event_waiters_{0};

  std::vector<Frame> frames_;
  /// Logical file sizes including not-yet-materialized appended blocks.
  std::unordered_map<RelFileId, BlockNumber, RelFileIdHash> pending_size_;
  std::vector<size_t> free_frames_;
  uint32_t readahead_pages_ = 0;
  std::unordered_map<RelFileId, ReadAhead, RelFileIdHash> readahead_;
  /// Durability bookkeeping for FlushAll's sync pass: writes ever planned
  /// per file vs. writes known covered by an fdatasync. A file is due for a
  /// sync when written > synced; after syncing through write count n a
  /// flusher records synced = n. A write counts when it is planned, under
  /// mu_, not when it lands: a drop waits out the file's writes and then
  /// erases its entries, so a commit never tries to sync a dropped file.
  /// Used only when no sync_fd_ is installed; the syncfs path replaces the
  /// per-file maps with one global write epoch.
  std::unordered_map<RelFileId, uint64_t, RelFileIdHash> file_writes_;
  std::unordered_map<RelFileId, uint64_t, RelFileIdHash> file_synced_;
  /// syncfs-path durability epoch: bumped after every smgr write returns;
  /// synced_epoch_ (under data_sync_mu_) records the highest epoch known
  /// covered by a syncfs. A flusher whose captured epoch is already covered
  /// piggybacks and skips the syscall.
  int sync_fd_ = -1;
  std::atomic<uint64_t> write_epoch_{0};
  std::mutex data_sync_mu_;  ///< serializes syncfs; never nests inside mu_
  uint64_t synced_epoch_ = 0;
  RelLatchRegistry rel_latches_;  ///< self-synchronized, not under mu_
  /// Self-synchronized; may call back into the pool, so the pool only
  /// touches it outside mu_ (see DiscardFile / CrashDiscardAll).
  std::unique_ptr<FreeSpaceMap> fsm_;
};

}  // namespace pglo

#endif  // PGLO_STORAGE_BUFFER_POOL_H_

#include "storage/buffer_pool.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "fault/retry.h"
#include "storage/free_space_map.h"

namespace pglo {

uint8_t* PageHandle::data() {
  PGLO_CHECK(valid());
  // Lock-free: frame data pointers are stable for the pool's lifetime and
  // the pin prevents eviction from recycling the frame.
  return pool_->frames_[frame_].data.get();
}

const uint8_t* PageHandle::data() const {
  PGLO_CHECK(valid());
  return pool_->frames_[frame_].data.get();
}

void PageHandle::MarkDirty() {
  PGLO_CHECK(valid());
  pool_->frames_[frame_].dirty.store(true, std::memory_order_release);
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(SmgrRegistry* smgrs, size_t num_frames)
    : smgrs_(smgrs), frames_(num_frames) {
  PGLO_CHECK(num_frames >= 2);
  free_frames_.reserve(num_frames);
  for (size_t i = 0; i < num_frames; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(num_frames - 1 - i);
  }
  fsm_ = std::make_unique<FreeSpaceMap>(this);
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) {
    PGLO_LOG(Error) << "buffer pool final flush failed: " << s.ToString();
  }
}

void BufferPool::AllLatches::Lock() {
  if (pool_mutex_) WaitLock(pool_->mu_, pool_->wp_latch_);
  pool_->LockStripes();
  held_ = true;
}

void BufferPool::AllLatches::Unlock() {
  pool_->UnlockStripes();
  if (pool_mutex_) pool_->mu_.unlock();
  held_ = false;
}

void BufferPool::LockStripes() const {
  for (const Stripe& s : stripes_) WaitLock(s.mu, wp_latch_);
}

void BufferPool::UnlockStripes() const {
  for (size_t i = kStripes; i-- > 0;) stripes_[i].mu.unlock();
}

void BufferPool::LruAppendLocked(Stripe& s, size_t frame) {
  Frame& f = frames_[frame];
  // Stamped under the stripe, so each list stays in stamp order and the
  // lists merge into one pool-wide LRU order.
  f.lru_stamp = lru_clock_.fetch_add(1, std::memory_order_relaxed);
  f.lru_prev = s.lru_tail;
  f.lru_next = kNoFrame;
  f.on_lru = true;
  if (s.lru_tail == kNoFrame) {
    s.lru_head = frame;
    s.head_stamp.store(f.lru_stamp, std::memory_order_relaxed);
  } else {
    frames_[s.lru_tail].lru_next = frame;
  }
  s.lru_tail = frame;
}

void BufferPool::LruRemoveLocked(Stripe& s, size_t frame) {
  Frame& f = frames_[frame];
  if (!f.on_lru) return;
  f.on_lru = false;
  if (f.lru_next == kNoFrame) {
    s.lru_tail = f.lru_prev;
  } else {
    frames_[f.lru_next].lru_prev = f.lru_prev;
  }
  if (f.lru_prev != kNoFrame) {
    frames_[f.lru_prev].lru_next = f.lru_next;
    return;
  }
  s.lru_head = f.lru_next;
  s.head_stamp.store(
      f.lru_next == kNoFrame ? kNoStamp : frames_[f.lru_next].lru_stamp,
      std::memory_order_relaxed);
}

void BufferPool::PinLocked(Stripe& s, size_t frame) {
  Frame& f = frames_[frame];
  LruRemoveLocked(s, frame);
  if (f.pin_count == 0) {
    f.pin_owner = std::this_thread::get_id();
    f.pin_shared = false;
  } else if (f.pin_owner != std::this_thread::get_id()) {
    f.pin_shared = true;
  }
  ++f.pin_count;
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  // A pinned frame keeps its page, so its id names the stripe unlatched.
  Stripe& s = StripeOf(f.id);
  {
    WaitLockGuard lock(s.mu, wp_latch_);
    PGLO_CHECK(f.pin_count > 0);
    if (--f.pin_count != 0) return;
    f.pin_shared = false;
    LruAppendLocked(s, frame);
  }
  // A flush may be waiting for this pin before it can write the page.
  SignalEvent();
}

void BufferPool::SignalEvent() {
  // Relaxed suffices: a sleeper registers while holding every stripe, and
  // the state change it waits for is made under one of them, so either
  // the sleeper saw the change or this load sees the sleeper.
  if (event_waiters_.load(std::memory_order_relaxed) == 0) return;
  std::lock_guard<std::mutex> lock(event_mu_);
  ++event_seq_;
  event_cv_.notify_all();
}

void BufferPool::AwaitEventLocked(AllLatches& all, const WaitPoint* wp) {
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(event_mu_);
    seq = event_seq_;
    event_waiters_.fetch_add(1, std::memory_order_relaxed);
  }
  all.Unlock();
  {
    WaitGuard wait(wp);
    std::unique_lock<std::mutex> lock(event_mu_);
    event_cv_.wait(lock, [&] { return event_seq_ != seq; });
    event_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  all.Lock();
}

BufferPool::FileSet BufferPool::UnwritableFilesLocked() const {
  // A dirty frame in flight is a flush's write (a read's frames are
  // clean): another write-back must not plan the file's length meanwhile.
  FileSet files;
  for (const Frame& f : frames_) {
    if (f.in_use && f.dirty.load(std::memory_order_acquire) &&
        (f.io_in_progress || !SafeToWriteLocked(f))) {
      files.insert(f.id.file);
    }
  }
  return files;
}

template <typename Visit>
void BufferPool::ScanLruLocked(Visit visit) {
  std::array<size_t, kStripes> next;
  for (size_t i = 0; i < kStripes; ++i) next[i] = stripes_[i].lru_head;
  while (true) {
    size_t oldest = kStripes;
    uint64_t stamp = kNoStamp;
    for (size_t i = 0; i < kStripes; ++i) {
      if (next[i] != kNoFrame && frames_[next[i]].lru_stamp < stamp) {
        stamp = frames_[next[i]].lru_stamp;
        oldest = i;
      }
    }
    if (oldest == kStripes) return;
    const size_t frame = next[oldest];
    next[oldest] = frames_[frame].lru_next;
    if (!visit(frame)) return;
  }
}

Result<size_t> BufferPool::FindVictimLocked() {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // The oldest unpinned frame heads the stripe with the lowest head stamp.
  // Only misses and appends evict, and they hold mu_, so meanwhile a head
  // moves only by a hit (pin) or an unpin: recheck under the stripe.
  while (true) {
    size_t oldest = kStripes;
    uint64_t stamp = kNoStamp;
    for (size_t i = 0; i < kStripes; ++i) {
      const uint64_t head =
          stripes_[i].head_stamp.load(std::memory_order_relaxed);
      if (head < stamp) {
        stamp = head;
        oldest = i;
      }
    }
    if (oldest == kStripes) break;  // nothing unpinned: let the walk decide
    Stripe& s = stripes_[oldest];
    WaitLockGuard lock(s.mu, wp_latch_);
    if (s.head_stamp.load(std::memory_order_relaxed) != stamp) continue;
    const size_t frame = s.lru_head;
    Frame& f = frames_[frame];
    // A dirty head may drag its file's appended tail into a write-back,
    // which needs the whole pool.
    if (f.dirty.load(std::memory_order_acquire)) break;
    // An unpinned clean frame cannot be pinned or dirtied without this
    // stripe, so it is evicted under it alone.
    LruRemoveLocked(s, frame);
    s.table.erase(f.id);
    f.in_use = false;
    StatInc(c_evictions_);
    return frame;
  }
  AllLatches stripes(this, /*pool_mutex=*/false);
  return EvictOldestLocked(stripes);
}

Result<size_t> BufferPool::EvictOldestLocked(AllLatches& stripes) {
  std::optional<size_t> victim;
  std::optional<FileSet> unwritable;  // found at the first dirty frame
  while (true) {
    bool writing = false;
    unwritable.reset();
    ScanLruLocked([&](size_t frame) {
      const Frame& f = frames_[frame];
      // Only a write leaves an in-flight frame on the list (a read keeps
      // its frames off it until the read ends).
      if (f.io_in_progress) {
        writing = true;
        return true;
      }
      // A dirty victim drags the rest of its file's appended tail into the
      // write-back (gap materialization), so it is only eligible when no
      // other backend pins a dirty page of that file. Clean victims are
      // always eligible. Single-stream, every pin is our own, so the
      // victim is the LRU head — the pre-concurrency choice exactly.
      if (f.dirty.load(std::memory_order_acquire)) {
        if (!unwritable.has_value()) unwritable = UnwritableFilesLocked();
        if (unwritable->count(f.id.file) != 0) return true;
      }
      victim = frame;
      return false;
    });
    if (victim.has_value() || !writing) break;
    // Every evictable frame is being written back by a flush, which
    // finishes its writes under the stripes alone: wait for one to end
    // with the pool mutex still held, then walk again.
    AwaitEventLocked(stripes, wp_io_wait_);
  }
  if (!victim.has_value()) {
    // Nothing evictable right now. Fail rather than wait: waiting here
    // with the caller's stack (possibly holding pins) risks deadlock, and
    // the single-stream engine returned this same error when every frame
    // was pinned.
    return Status::ResourceExhausted("all buffer pool frames are pinned");
  }
  const size_t frame = *victim;
  Frame& f = frames_[frame];
  Stripe& s = StripeOf(f.id);
  LruRemoveLocked(s, frame);
  StatInc(c_evictions_);
  if (f.dirty.load(std::memory_order_acquire)) {
    // Background-writer behaviour: when eviction hits a dirty page,
    // clean a batch of cold dirty pages in sorted block order, so that a
    // mixed read/append workload pays a few clustered write passes
    // instead of a head seek per evicted page.
    PGLO_RETURN_IF_ERROR(WriteBackBatchLocked(frame, *unwritable));
  }
  s.table.erase(f.id);
  f.in_use = false;
  return frame;
}

Status BufferPool::WriteBackBatchLocked(size_t victim_frame,
                                        const FileSet& unwritable) {
  constexpr size_t kBatch = 64;
  std::vector<size_t> batch;
  batch.push_back(victim_frame);
  ScanLruLocked([&](size_t frame) {
    if (batch.size() >= kBatch) return false;
    const Frame& f = frames_[frame];
    if (f.dirty.load(std::memory_order_acquire) &&
        unwritable.count(f.id.file) == 0) {
      batch.push_back(frame);
    }
    return true;
  });
  std::sort(batch.begin(), batch.end(), [this](size_t a, size_t b) {
    const PageId& x = frames_[a].id;
    const PageId& y = frames_[b].id;
    return std::tie(x.file.smgr_id, x.file.relfile, x.block) <
           std::tie(y.file.smgr_id, y.file.relfile, y.block);
  });
  WritePlan plan;
  const Status planned = PlanWriteBackLocked(batch, &plan);
  const Status wrote = WriteRuns(&plan);
  FinishWriteLocked(plan);
  PGLO_RETURN_IF_ERROR(wrote);
  return planned;
}

Status BufferPool::PlanWriteBackLocked(const std::vector<size_t>& sorted,
                                       WritePlan* plan) {
  // One device command per contiguous dirty run of up to 64 blocks (512
  // KB). Window 0 caps runs at one block: the per-page command sequence
  // the pool issued before vectored I/O, kept for the window-0 ablation.
  const size_t max_run = readahead_pages_ == 0 ? 1 : 64;
  // Each appended file's length in its storage manager once the runs
  // planned so far are written: the gap below a run is judged as if they
  // had been, since the writes come after the planning.
  std::unordered_map<RelFileId, BlockNumber, RelFileIdHash> length;
  auto add_run = [&](std::span<const size_t> run) {
    const PageId& first = frames_[run.front()].id;
    auto it = length.find(first.file);
    if (it != length.end()) {
      it->second = std::max<BlockNumber>(
          it->second, first.block + static_cast<BlockNumber>(run.size()));
    }
    ++file_writes_[first.file];
    for (size_t idx : run) {
      frames_[idx].io_in_progress = true;
      plan->frames.push_back(idx);
    }
    plan->run_ends.push_back(plan->frames.size());
  };
  size_t i = 0;
  while (i < sorted.size()) {
    if (!frames_[sorted[i]].dirty.load(std::memory_order_acquire)) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < sorted.size() && j - i < max_run) {
      const Frame& prev = frames_[sorted[j - 1]];
      const Frame& cur = frames_[sorted[j]];
      if (!(cur.id.file == prev.id.file) ||
          cur.id.block != prev.id.block + 1 ||
          !cur.dirty.load(std::memory_order_acquire)) {
        break;
      }
      ++j;
    }
    const PageId first = frames_[sorted[i]].id;
    if (pending_size_.count(first.file) != 0) {
      // Lazily-appended tail: fill the gap below the run first, one block
      // per command, so the write extends the file contiguously. Only
      // NewPage puts blocks past a file's end; a file without an append
      // may hold holes.
      auto it = length.find(first.file);
      if (it == length.end()) {
        PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(first.file));
        PGLO_ASSIGN_OR_RETURN(BlockNumber n,
                              smgr->NumBlocks(first.file.relfile));
        it = length.emplace(first.file, n).first;
      }
      for (BlockNumber b = it->second; b < first.block; ++b) {
        const PageId id{first.file, b};
        Stripe& s = StripeOf(id);
        auto t = s.table.find(id);
        if (t == s.table.end()) {
          return Status::Internal(
              "appended block evicted out of order: relfile " +
              std::to_string(first.file.relfile) + " block " +
              std::to_string(b));
        }
        add_run({&t->second, 1});
      }
    }
    add_run(std::span<const size_t>(sorted).subspan(i, j - i));
    i = j;
  }
  return Status::OK();
}

Status BufferPool::WriteRuns(WritePlan* plan) {
  std::vector<uint8_t> staging;  // gathers a run longer than one block
  size_t begin = 0;
  for (size_t end : plan->run_ends) {
    const std::span<const size_t> run(plan->frames.data() + begin,
                                      end - begin);
    begin = end;
    TraceSpan span(registry_, h_writeback_ns_, span_writeback_);
    span.AddDetail(run.size());
    // The mark keeps the frame's page and bytes ours until it clears.
    const PageId first = frames_[run.front()].id;
    PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(first.file));
    // Stamp a checksum into slotted pages on their way to stable storage so
    // that media corruption is detected on the next read. Non-slotted
    // formats (B-tree nodes, meta pages) carry their own magic; raw blocks
    // are user bytes that merely may look like a slotted page. A run of one
    // leaves straight from its frame; a longer run is gathered first.
    const bool stamp = !smgr->raw_blocks();
    const bool gather = run.size() > 1;
    if (gather) staging.resize(run.size() * kPageSize);
    for (size_t k = 0; k < run.size(); ++k) {
      uint8_t* data = frames_[run[k]].data.get();
      SlottedPage page(data);
      if (stamp && page.IsInitialized()) {
        page.UpdateChecksum();
      }
      if (gather) std::memcpy(staging.data() + k * kPageSize, data, kPageSize);
    }
    const uint8_t* src =
        gather ? staging.data() : frames_[run.front()].data.get();
    PGLO_RETURN_IF_ERROR(RetryTransient(smgrs_->retry_policy(), [&] {
      return smgr->WriteBlocks(first.file.relfile, first.block,
                               static_cast<uint32_t>(run.size()), src);
    }));
    // Only once the bytes are in the storage manager: a concurrent syncfs
    // that reads this epoch then covers them.
    write_epoch_.fetch_add(1, std::memory_order_release);
    StatAdd(c_writebacks_, run.size());
    ++plan->runs_written;
  }
  return Status::OK();
}

void BufferPool::FinishWriteLocked(const WritePlan& plan) {
  const size_t written =
      plan.runs_written == 0 ? 0 : plan.run_ends[plan.runs_written - 1];
  for (size_t k = 0; k < plan.frames.size(); ++k) {
    Frame& f = frames_[plan.frames[k]];
    // No other thread could pin the frame while it was marked, so none
    // re-dirtied it: a written frame is clean, an unwritten one dirty.
    if (k < written) f.dirty.store(false, std::memory_order_release);
    f.io_in_progress = false;
    StripeOf(f.id).io_cv.notify_all();
  }
}

void BufferPool::InstallFrameLocked(size_t frame, PageId id) {
  Frame& f = frames_[frame];
  std::memset(f.data.get(), 0, kPageSize);
  Stripe& s = StripeOf(id);
  WaitLockGuard lock(s.mu, wp_latch_);
  f.id = id;
  f.pin_count = 1;
  f.pin_owner = std::this_thread::get_id();
  f.pin_shared = false;
  f.dirty.store(true, std::memory_order_release);
  f.in_use = true;
  f.prefetched = false;
  s.table[id] = frame;
}

bool BufferPool::PinResidentLocked(Stripe& s, std::unique_lock<std::mutex>& lk,
                                   const PageId& id, bool overwrite,
                                   size_t* frame) {
  auto it = s.table.find(id);
  if (it == s.table.end()) return false;
  if (frames_[it->second].io_in_progress) {
    // Another backend is reading or writing this page. Wait for that I/O,
    // then probe again: a failed read unpublished the frame, and this call
    // then misses.
    WaitGuard wait(wp_io_wait_);
    s.io_cv.wait(lk, [&] {
      it = s.table.find(id);
      return it == s.table.end() || !frames_[it->second].io_in_progress;
    });
    if (it == s.table.end()) return false;
  }
  Frame& f = frames_[it->second];
  if (overwrite) {
    f.dirty.store(true, std::memory_order_release);
  } else {
    StatInc(c_hits_);
    if (f.prefetched) {
      f.prefetched = false;
      StatInc(c_readahead_hits_);
    }
  }
  PinLocked(s, it->second);
  *frame = it->second;
  return true;
}

Result<PageHandle> BufferPool::AccessPage(PageId id, bool overwrite) {
  // Spans even the hit path: the page-access CPU charge advances the clock
  // here, and the profiler should bill it to the pool, not the caller.
  // Both run before any pool latch — the clock and CPU model are their own
  // synchronization domains and must not serialize behind pool misses.
  TraceSpan span(registry_, h_get_ns_, span_get_);
  if (cpu_ != nullptr && access_instructions_ > 0) {
    cpu_->ChargeInstructions(access_instructions_);
  }
  // A hit takes only its page's stripe.
  Stripe& home = StripeOf(id);
  size_t frame;
  std::unique_lock<std::mutex> lk;
  while (true) {
    {
      WaitLock(home.mu, wp_latch_);
      std::unique_lock<std::mutex> stripe_lk(home.mu, std::adopt_lock);
      if (PinResidentLocked(home, stripe_lk, id, overwrite, &frame)) {
        return PageHandle(this, frame, id);
      }
    }
    // A miss. Only mu_ inserts page-table entries, so once it is held with
    // the page still absent, no other backend can map the page.
    WaitLock(mu_, wp_latch_);
    lk = std::unique_lock<std::mutex>(mu_, std::adopt_lock);
    if (!Resident(id)) break;
    lk.unlock();  // another miss mapped it meanwhile: probe again
  }
  if (overwrite) {
    PGLO_ASSIGN_OR_RETURN(frame, FindVictimLocked());
    InstallFrameLocked(frame, id);
    return PageHandle(this, frame, id);
  }
  StatInc(c_misses_);
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(id.file));
  // Sequential read-ahead (DESIGN.md §10), clipped at the storage
  // manager's end of file and at the first block that is already resident
  // or being read.
  uint32_t want = 1;
  if (readahead_pages_ > 1) {
    uint32_t window = readahead_[id.file].OnMiss(id.block, readahead_pages_);
    if (window > 1) {
      Result<BlockNumber> nb = smgr->NumBlocks(id.file.relfile);
      if (nb.ok() && id.block < nb.value()) {
        want = static_cast<uint32_t>(
            std::min<uint64_t>(window, nb.value() - id.block));
        for (uint32_t k = 1; k < want; ++k) {
          if (Resident(PageId{id.file, id.block + k})) {
            want = k;
            break;
          }
        }
      }
    }
  }
  // The run's frames in block order: the demanded page, then read-ahead.
  PGLO_ASSIGN_OR_RETURN(frame, FindVictimLocked());
  std::vector<size_t> frames{frame};
  for (uint32_t k = 1; k < want; ++k) {
    Result<size_t> v = FindVictimLocked();
    if (!v.ok()) break;  // pool too hot to prefetch: fault what fits
    frames.push_back(v.value());
  }
  const uint32_t run = static_cast<uint32_t>(frames.size());
  if (readahead_pages_ > 1) readahead_[id.file].Read(id.block, run);
  if (run > 1 && events_ != nullptr) {
    events_->Append(EventType::kReadAheadRamp, "bufpool", run, id.block);
  }
  // Publish the run as I/O in progress, each page under its stripe, and
  // read it with no latch held. The demanded frame is pinned and the
  // read-ahead frames stay off the LRU, so nothing evicts them; a backend
  // that wants one of these pages meanwhile waits for this read
  // (PinResidentLocked).
  for (uint32_t k = 0; k < run; ++k) {
    Frame& fr = frames_[frames[k]];
    const PageId pid{id.file, id.block + k};
    Stripe& s = StripeOf(pid);
    WaitLockGuard publish(s.mu, wp_latch_);
    fr.id = pid;
    fr.pin_count = k == 0 ? 1 : 0;
    fr.pin_owner = std::this_thread::get_id();
    fr.pin_shared = false;
    fr.dirty.store(false, std::memory_order_release);
    fr.in_use = true;
    fr.prefetched = k > 0;
    fr.io_in_progress = true;
    s.table[pid] = frames[k];
  }
  lk.unlock();
  // A run of one reads straight into its frame; a longer run lands in a
  // staging buffer of its own and is copied out frame by frame.
  std::unique_ptr<uint8_t[]> staging;
  uint8_t* dst = frames_[frame].data.get();
  if (run > 1) {
    staging = std::make_unique_for_overwrite<uint8_t[]>(
        static_cast<size_t>(run) * kPageSize);
    dst = staging.get();
  }
  Status s = RetryTransient(smgrs_->retry_policy(), [&] {
    return smgr->ReadBlocks(id.file.relfile, id.block, run, dst);
  });
  // Only the demanded page's checksum can fail the call. A damaged
  // read-ahead page is left out, so a demand read of it reports the
  // corruption itself.
  auto verifies = [raw = smgr->raw_blocks()](uint8_t* page) {
    SlottedPage p(page);
    return raw || !p.IsInitialized() || p.VerifyChecksum();
  };
  if (s.ok() && !verifies(dst)) {
    s = Status::Corruption("page checksum mismatch: relfile " +
                           std::to_string(id.file.relfile) + " block " +
                           std::to_string(id.block));
  }
  std::vector<uint32_t> damaged;
  if (s.ok() && run > 1) {
    std::memcpy(frames_[frame].data.get(), dst, kPageSize);
    for (uint32_t k = 1; k < run; ++k) {
      uint8_t* page = dst + static_cast<size_t>(k) * kPageSize;
      if (verifies(page)) {
        std::memcpy(frames_[frames[k]].data.get(), page, kPageSize);
      } else {
        damaged.push_back(k);
      }
    }
  }
  // Clear the marks page by page, each under its stripe. Only a failed read
  // or a damaged read-ahead page frees frames, which takes mu_.
  if (!s.ok() || !damaged.empty()) {
    WaitLock(mu_, wp_latch_);
    lk = std::unique_lock<std::mutex>(mu_, std::adopt_lock);
  }
  for (uint32_t k = 0; k < run; ++k) {
    const size_t fr = frames[k];
    Stripe& stripe = StripeOf(frames_[fr].id);
    WaitLockGuard finish(stripe.mu, wp_latch_);
    frames_[fr].io_in_progress = false;
    if (!s.ok() ||
        std::find(damaged.begin(), damaged.end(), k) != damaged.end()) {
      FreeFrameLocked(stripe, fr);
    } else if (k > 0) {
      // Read-ahead frames go onto the LRU unpinned, in block order:
      // prefetched pages are always evictable and never pin the pool down.
      LruAppendLocked(stripe, fr);
      StatInc(c_readahead_pages_);
    }
    stripe.io_cv.notify_all();
  }
  SignalEvent();  // DiscardFile may be waiting out this read
  if (!s.ok()) return s;
  return PageHandle(this, frame, id);
}

void BufferPool::FreeFrameLocked(Stripe& s, size_t frame) {
  Frame& f = frames_[frame];
  LruRemoveLocked(s, frame);
  // NewPage may have claimed the block number of a read that failed past
  // the end of file; its mapping stays.
  auto it = s.table.find(f.id);
  if (it != s.table.end() && it->second == frame) s.table.erase(it);
  f.pin_count = 0;
  f.pin_shared = false;
  f.in_use = false;
  f.dirty.store(false, std::memory_order_release);
  f.prefetched = false;
  free_frames_.push_back(frame);
}

Result<BlockNumber> BufferPool::NumBlocks(RelFileId file) {
  WaitLockGuard lock(mu_, wp_latch_);
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(file));
  PGLO_ASSIGN_OR_RETURN(BlockNumber n, smgr->NumBlocks(file.relfile));
  auto it = pending_size_.find(file);
  if (it != pending_size_.end() && it->second > n) return it->second;
  return n;
}

Result<PageHandle> BufferPool::NewPage(RelFileId file,
                                       BlockNumber* block_out) {
  TraceSpan span(registry_, h_new_page_ns_, span_new_page_);
  WaitLockGuard lock(mu_, wp_latch_);
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(file));
  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, smgr->NumBlocks(file.relfile));
  auto pit = pending_size_.find(file);
  if (pit != pending_size_.end() && pit->second > nblocks) {
    nblocks = pit->second;
  }
  PGLO_ASSIGN_OR_RETURN(size_t frame, FindVictimLocked());
  // The block is materialized in the storage manager lazily at write-back
  // (WriteBack fills any gap below it first); until then the pool's
  // pending-size overlay makes it visible through NumBlocks().
  PageId id{file, nblocks};
  InstallFrameLocked(frame, id);
  pending_size_[file] = nblocks + 1;
  *block_out = nblocks;
  return PageHandle(this, frame, id);
}

Status BufferPool::FlushSnapshotLocked(AllLatches& all) {
  // Capture the dirty set on entry; pages dirtied afterwards belong to
  // whatever operation dirtied them. Entries are revalidated by page id
  // each round because writing or waiting below lets other backends run:
  // a captured frame that another backend's eviction cleaned or recycled
  // is simply done.
  std::vector<std::pair<size_t, PageId>> snap;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (!f.in_use || !f.dirty.load(std::memory_order_acquire)) continue;
    snap.emplace_back(i, f.id);
  }
  // Frames this flush has written back once are done even if another
  // backend re-dirties them afterwards (their bytes as of our snapshot are
  // on disk; the re-dirty belongs to that backend's own commit). Without
  // this, a flush behind K active writers chases their tail pages forever.
  std::unordered_set<size_t> written;
  while (true) {
    std::vector<size_t> valid;
    for (const auto& [idx, pid] : snap) {
      const Frame& f = frames_[idx];
      if (written.count(idx) != 0) continue;
      if (f.in_use && f.id == pid &&
          f.dirty.load(std::memory_order_acquire)) {
        valid.push_back(idx);
      }
    }
    if (valid.empty()) return Status::OK();
    // A file is ready when every dirty frame of it is writable right now
    // (write-back may touch more of the file than the captured frame: gap
    // materialization, run coalescing). Never skip a file outright — a
    // commit's force-to-disk must not silently drop a page another backend
    // happens to be pinning, or a crash would lose committed data.
    const FileSet unwritable = UnwritableFilesLocked();
    std::vector<size_t> ready;
    for (size_t idx : valid) {
      if (unwritable.count(frames_[idx].id.file) == 0) ready.push_back(idx);
    }
    if (!ready.empty()) {
      // Sorted write-back: real systems cluster checkpoint writes; issuing
      // in page-table order would charge the disk model a seek per page.
      std::sort(ready.begin(), ready.end(), [this](size_t a, size_t b) {
        const PageId& x = frames_[a].id;
        const PageId& y = frames_[b].id;
        return std::tie(x.file.smgr_id, x.file.relfile, x.block) <
               std::tie(y.file.smgr_id, y.file.relfile, y.block);
      });
      // Plan under every latch, write with none held, finish under the
      // stripes: meanwhile other backends hit, miss and append, and one
      // that wants a page being written waits for its write. Finishing
      // does not take the pool mutex, which a miss waiting for these
      // writes to free a victim holds.
      WritePlan plan;
      const Status planned = PlanWriteBackLocked(ready, &plan);
      all.Unlock();
      const Status wrote = WriteRuns(&plan);
      LockStripes();
      FinishWriteLocked(plan);
      UnlockStripes();
      SignalEvent();
      all.Lock();
      PGLO_RETURN_IF_ERROR(wrote);
      PGLO_RETURN_IF_ERROR(planned);
      written.insert(ready.begin(), ready.end());
      continue;  // single-stream: everything was ready, next round is empty
    }
    // Every remaining frame belongs to a file with a dirty page pinned by
    // another backend. Wait for a pin to drop, then re-evaluate. This
    // cannot self-deadlock: the flush holds no pins of its own by the time
    // it waits (LO operations release handles before commit flushes).
    AwaitEventLocked(all, wp_pin_wait_);
  }
}

Status BufferPool::FlushAll() {
  // Every file with writes not yet covered by a sync, captured together
  // with its write count AFTER the flush loop — so the targets include the
  // pages this flush just wrote back.
  std::vector<std::pair<RelFileId, uint64_t>> targets;
  uint64_t epoch_target = 0;
  {
    WaitLockGuard turn(flush_mu_, wp_latch_);
    AllLatches all(this);
    PGLO_RETURN_IF_ERROR(FlushSnapshotLocked(all));
    if (sync_fd_ >= 0) {
      epoch_target = write_epoch_.load(std::memory_order_acquire);
    } else {
      for (const auto& [file, written] : file_writes_) {
        auto it = file_synced_.find(file);
        if (it == file_synced_.end() || it->second < written) {
          targets.emplace_back(file, written);
        }
      }
    }
  }
  if (sync_fd_ >= 0) {
    // One syncfs covers every database file on the filesystem — heap
    // files, indexes, catalogs, however many backends dirtied them — in a
    // single journal commit. Outside flush_mu_ and mu_, so the next flush
    // writes back meanwhile, with epoch piggybacking, exactly like the
    // commit log's fdatasync protocol.
    if (epoch_target == 0) return Status::OK();
    WaitLockGuard sync_lock(data_sync_mu_, wp_data_sync_);
    if (synced_epoch_ >= epoch_target) return Status::OK();
    uint64_t upto = write_epoch_.load(std::memory_order_acquire);
    int err = 0;
    {
      // The syscall itself is a blocking episode worth attributing: the
      // leader of a commit batch spends its force stall here.
      WaitGuard sync_wait(wp_data_sync_, /*count_acquire=*/false);
      if (::syncfs(sync_fd_) != 0) err = errno;
    }
    if (err != 0) {
      return Status::IOError("syncfs of fd " + std::to_string(sync_fd_) +
                             " failed: " + std::strerror(err));
    }
    synced_epoch_ = upto;
    return Status::OK();
  }
  // Durability pass, deliberately outside mu_: fdatasync is the longest
  // blocking syscall in a commit, and other backends must keep faulting
  // and dirtying pages while it runs. Per-file piggyback: if a concurrent
  // flush already synced past our recorded write count, skip the syscall.
  for (const auto& [file, written] : targets) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      auto it = file_synced_.find(file);
      if (it != file_synced_.end() && it->second >= written) continue;
    }
    PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, SmgrFor(file));
    Status s = smgr->Sync(file.relfile);
    std::lock_guard<std::mutex> lk(mu_);
    if (!s.ok()) {
      // A file dropped while we flushed has nothing left to force; its
      // bookkeeping is gone from file_writes_. Anything still tracked
      // failed a real sync and must fail the commit.
      if (file_writes_.count(file) != 0) return s;
      continue;
    }
    uint64_t& synced = file_synced_[file];
    if (synced < written) synced = written;
  }
  return Status::OK();
}

void BufferPool::DiscardFile(RelFileId file, bool discard_dirty) {
  // Outside mu_: the FSM may call back into the pool (persist/validate), so
  // the pool never touches it while holding its own latch.
  if (discard_dirty) fsm_->Forget(file);
  AllLatches all(this);
  // A read or write in flight owns its frames until it ends; let it end.
  while (std::any_of(frames_.begin(), frames_.end(), [&](const Frame& f) {
    return f.io_in_progress && f.id.file == file;
  })) {
    AwaitEventLocked(all, wp_io_wait_);
  }
  if (discard_dirty) pending_size_.erase(file);
  readahead_.erase(file);
  if (discard_dirty) {
    // Dropping the file retires its durability debt: a later FlushAll must
    // not try to fdatasync a possibly-unlinked file. (With discard_dirty
    // false the file stays live and keeps any pending sync debt.)
    file_writes_.erase(file);
    file_synced_.erase(file);
  }
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.in_use || !(f.id.file == file)) continue;
    if (f.dirty.load(std::memory_order_acquire) && !discard_dirty) continue;
    PGLO_CHECK(f.pin_count == 0);
    FreeFrameLocked(StripeOf(f.id), i);
  }
}

void BufferPool::CrashDiscardAll() {
  // The in-memory map is volatile state; reload from the sidecar on reopen.
  fsm_->ForgetAll();
  AllLatches all(this);
  pending_size_.clear();
  readahead_.clear();
  file_writes_.clear();
  file_synced_.clear();
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& f = frames_[i];
    if (!f.in_use) continue;
    PGLO_CHECK(f.pin_count == 0 && !f.io_in_progress);
    FreeFrameLocked(StripeOf(f.id), i);
  }
}

}  // namespace pglo

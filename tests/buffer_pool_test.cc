#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>

#include "common/random.h"
#include "obs/stats.h"
#include "obs/wait_event.h"
#include "smgr/disk_smgr.h"
#include "smgr/mm_smgr.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

/// The pool counter `bufpool.<name>` of a pool bound to `stats`.
uint64_t Count(StatsRegistry& stats, const std::string& name) {
  return stats.counter("bufpool." + name)->value();
}

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() {
    EXPECT_OK(smgrs_.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
    StorageManager* smgr = smgrs_.Get(0).value();
    EXPECT_OK(smgr->CreateFile(1));
  }

  RelFileId file_{0, 1};
  SmgrRegistry smgrs_;
  StatsRegistry stats_;  ///< bound by the tests that count
};

TEST_F(BufferPoolTest, NewPageThenGet) {
  BufferPool pool(&smgrs_, 8);
  pool.BindStats(&stats_);
  BlockNumber block;
  {
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.NewPage(file_, &block));
    EXPECT_EQ(block, 0u);
    handle.data()[0] = 0xAB;
    handle.MarkDirty();
  }
  ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.GetPage({file_, 0}));
  EXPECT_EQ(handle.data()[0], 0xAB);
  EXPECT_EQ(Count(stats_, "hits"), 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(&smgrs_, 4);
  pool.BindStats(&stats_);
  for (BlockNumber b = 0; b < 10; ++b) {
    BlockNumber got;
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.NewPage(file_, &got));
    handle.data()[0] = static_cast<uint8_t>(b + 1);
    handle.MarkDirty();
  }
  EXPECT_GT(Count(stats_, "evictions"), 0u);
  // Every page must read back its own contents even though only 4 frames
  // exist.
  for (BlockNumber b = 0; b < 10; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.GetPage({file_, b}));
    EXPECT_EQ(handle.data()[0], static_cast<uint8_t>(b + 1)) << b;
  }
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(&smgrs_, 2);
  BlockNumber b0, b1;
  ASSERT_OK_AND_ASSIGN(PageHandle h0, pool.NewPage(file_, &b0));
  ASSERT_OK_AND_ASSIGN(PageHandle h1, pool.NewPage(file_, &b1));
  // Both frames pinned: a third page cannot be brought in.
  BlockNumber b2;
  Result<PageHandle> h2 = pool.NewPage(file_, &b2);
  EXPECT_TRUE(h2.status().IsResourceExhausted());
  h0.Release();
  ASSERT_OK_AND_ASSIGN(PageHandle h3, pool.NewPage(file_, &b2));
  EXPECT_EQ(b2, 2u);
}

TEST_F(BufferPoolTest, LruEvictsColdestPage) {
  BufferPool pool(&smgrs_, 2);
  pool.BindStats(&stats_);
  BlockNumber b;
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b));
  }
  // Touch page 0 so page 1 is the LRU victim.
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 0})); }
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b)); }
  stats_.Reset();
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 0})); }
  EXPECT_EQ(Count(stats_, "hits"), 1u);  // page 0 still resident
  stats_.Reset();
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 1})); }
  EXPECT_EQ(Count(stats_, "misses"), 1u);  // page 1 was evicted
}

TEST_F(BufferPoolTest, FlushAllPersistsWithoutEviction) {
  BufferPool pool(&smgrs_, 8);
  BlockNumber b;
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b));
    h.data()[100] = 0x5C;
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  // Bypass the pool: the storage manager must already have the bytes.
  uint8_t raw[kPageSize];
  ASSERT_OK(smgrs_.Get(0).value()->ReadBlock(1, 0, raw));
  EXPECT_EQ(raw[100], 0x5C);
}

TEST_F(BufferPoolTest, CrashDiscardLosesUnflushedWrites) {
  BufferPool pool(&smgrs_, 8);
  BlockNumber b;
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b));
    h.data()[0] = 0x11;
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 0}));
    h.data()[0] = 0x22;  // dirty, never flushed
    h.MarkDirty();
  }
  pool.CrashDiscardAll();
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 0}));
  EXPECT_EQ(h.data()[0], 0x11);  // pre-crash value
}

TEST_F(BufferPoolTest, DiscardFileDropsFrames) {
  BufferPool pool(&smgrs_, 8);
  pool.BindStats(&stats_);
  BlockNumber b;
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b)); }
  ASSERT_OK(pool.FlushAll());  // materialize before dropping frames
  pool.DiscardFile(file_, /*discard_dirty=*/true);
  stats_.Reset();
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 0})); }
  EXPECT_EQ(Count(stats_, "misses"), 1u);
}

TEST_F(BufferPoolTest, LazyAppendVisibleThroughOverlay) {
  BufferPool pool(&smgrs_, 8);
  BlockNumber b0, b1;
  ASSERT_OK_AND_ASSIGN(PageHandle h0, pool.NewPage(file_, &b0));
  ASSERT_OK_AND_ASSIGN(PageHandle h1, pool.NewPage(file_, &b1));
  EXPECT_EQ(b0, 0u);
  EXPECT_EQ(b1, 1u);
  // The storage manager has not seen the blocks yet...
  ASSERT_OK_AND_ASSIGN(BlockNumber smgr_n,
                       smgrs_.Get(0).value()->NumBlocks(1));
  EXPECT_EQ(smgr_n, 0u);
  // ...but the pool's view includes them.
  ASSERT_OK_AND_ASSIGN(BlockNumber pool_n, pool.NumBlocks(file_));
  EXPECT_EQ(pool_n, 2u);
  h0.Release();
  h1.Release();
  ASSERT_OK(pool.FlushAll());
  ASSERT_OK_AND_ASSIGN(smgr_n, smgrs_.Get(0).value()->NumBlocks(1));
  EXPECT_EQ(smgr_n, 2u);
  // Discarding dirty appends retracts the overlay.
  BlockNumber b2;
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b2)); }
  pool.DiscardFile(file_, /*discard_dirty=*/true);
  ASSERT_OK_AND_ASSIGN(pool_n, pool.NumBlocks(file_));
  EXPECT_EQ(pool_n, 2u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfHandle) {
  BufferPool pool(&smgrs_, 4);
  BlockNumber b;
  ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &b));
  PageHandle moved = std::move(h);
  EXPECT_FALSE(h.valid());
  EXPECT_TRUE(moved.valid());
  moved.data()[0] = 1;
  moved.MarkDirty();
}

TEST_F(BufferPoolTest, MissOnNonexistentBlockFails) {
  BufferPool pool(&smgrs_, 4);
  EXPECT_FALSE(pool.GetPage({file_, 99}).ok());
}

TEST_F(BufferPoolTest, ChecksumStampedOnWritebackAndVerifiedOnRead) {
  BufferPool pool(&smgrs_, 4);
  BlockNumber block;
  {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &block));
    SlottedPage page(h.data());
    page.Init();
    ASSERT_OK(page.AddItem(Slice("guarded payload")).status());
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  pool.CrashDiscardAll();
  // Corrupt the stored image behind the pool's back.
  uint8_t raw[kPageSize];
  StorageManager* smgr = smgrs_.Get(0).value();
  ASSERT_OK(smgr->ReadBlock(1, block, raw));
  raw[4000] ^= 0xFF;
  ASSERT_OK(smgr->WriteBlock(1, block, raw));
  Result<PageHandle> h = pool.GetPage({file_, block});
  ASSERT_FALSE(h.ok());
  EXPECT_TRUE(h.status().IsCorruption());
}

// Populates `blocks` pages (first byte = block number + 1) through the
// pool, flushes them to the storage manager, and empties every frame so a
// subsequent scan starts cold, with the pool's registry `stats` zeroed.
void PopulateAndEmpty(BufferPool* pool, RelFileId file, BlockNumber blocks,
                      StatsRegistry* stats) {
  for (BlockNumber b = 0; b < blocks; ++b) {
    BlockNumber got;
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool->NewPage(file, &got));
    h.data()[0] = static_cast<uint8_t>(b + 1);
    h.MarkDirty();
  }
  ASSERT_OK(pool->FlushAll());
  pool->CrashDiscardAll();
  stats->Reset();
}

TEST_F(BufferPoolTest, ReadAheadServesSequentialScanFromPrefetch) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 20, &stats_);
  for (BlockNumber b = 0; b < 20; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(b + 1)) << b;
  }
  // Once the streak confirms, most of the scan is served from prefetched
  // frames; every resident page was installed exactly once.
  EXPECT_GT(Count(stats_, "readahead_pages"), 0u);
  EXPECT_EQ(Count(stats_, "hits"), Count(stats_, "readahead_hits"));
  EXPECT_EQ(Count(stats_, "misses") + Count(stats_, "readahead_pages"), 20u);
  EXPECT_LT(Count(stats_, "misses"), 10u);
}

TEST_F(BufferPoolTest, ReadAheadRequiresConfirmedStreak) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 20, &stats_);
  // One accidental adjacency (a record straddling two blocks) is not a
  // scan: no prefetch may fire.
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 5})); }
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 6})); }
  EXPECT_EQ(Count(stats_, "readahead_pages"), 0u);
  // The third consecutive sequential miss confirms the pattern.
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 7})); }
  EXPECT_GT(Count(stats_, "readahead_pages"), 0u);
}

TEST_F(BufferPoolTest, ReadAheadClippedAtEndOfFile) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 10, &stats_);
  // Once the window ramps up it soon exceeds the blocks left before EOF;
  // the prefetch must clip there — never install (or fault) past the end —
  // and the scan still completes.
  for (BlockNumber b = 0; b < 10; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(b + 1)) << b;
  }
  EXPECT_EQ(Count(stats_, "misses") + Count(stats_, "readahead_pages"), 10u);
  EXPECT_LT(Count(stats_, "misses"), 10u);
  EXPECT_FALSE(pool.GetPage({file_, 10}).ok());
}

TEST_F(BufferPoolTest, PrefetchedFramesAreEvictableAndUnpinned) {
  // A pool smaller than the file: the scan only completes if prefetched
  // frames enter the LRU unpinned and can be evicted at any time.
  BufferPool pool(&smgrs_, 6);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 24, &stats_);
  for (BlockNumber b = 0; b < 24; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(b + 1)) << b;
  }
  EXPECT_GT(Count(stats_, "readahead_pages"), 0u);
  // With every frame free again, NewPage can claim the whole pool: no pin
  // was leaked by the prefetch path.
  std::vector<PageHandle> pinned;
  for (size_t i = 0; i < pool.num_frames(); ++i) {
    BlockNumber got;
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &got));
    pinned.push_back(std::move(h));
  }
  EXPECT_FALSE(pool.GetPage({file_, 0}).ok());  // genuinely full now
}

TEST_F(BufferPoolTest, DiscardFileDropsPrefetchedFrames) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 20, &stats_);
  for (BlockNumber b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
  }
  ASSERT_GT(Count(stats_, "readahead_pages"), 0u);
  pool.DiscardFile(file_, /*discard_dirty=*/true);
  stats_.Reset();
  // Prefetched frames are gone with the rest of the file: fresh misses,
  // no stale hit, and the detector restarts from scratch.
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 4})); }
  EXPECT_EQ(Count(stats_, "hits"), 0u);
  EXPECT_EQ(Count(stats_, "misses"), 1u);
  EXPECT_EQ(Count(stats_, "readahead_pages"), 0u);
}

TEST_F(BufferPoolTest, CrashDiscardDropsPrefetchedFrames) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 20, &stats_);
  for (BlockNumber b = 0; b < 4; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
  }
  ASSERT_GT(Count(stats_, "readahead_pages"), 0u);
  pool.CrashDiscardAll();
  stats_.Reset();
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, 4})); }
  EXPECT_EQ(Count(stats_, "hits"), 0u);
  EXPECT_EQ(Count(stats_, "misses"), 1u);
}

TEST_F(BufferPoolTest, WindowZeroNeverPrefetchesOrCoalesces) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(0);
  PopulateAndEmpty(&pool, file_, 20, &stats_);
  for (BlockNumber b = 0; b < 20; ++b) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
    EXPECT_EQ(h.data()[0], static_cast<uint8_t>(b + 1)) << b;
  }
  EXPECT_EQ(Count(stats_, "readahead_pages"), 0u);
  EXPECT_EQ(Count(stats_, "readahead_hits"), 0u);
  EXPECT_EQ(Count(stats_, "misses"), 20u);
}

TEST_F(BufferPoolTest, DamagedReadAheadPageFailsOnlyItsOwnRead) {
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  // 20 checksummed slotted pages, each holding its block number.
  for (BlockNumber b = 0; b < 20; ++b) {
    BlockNumber got;
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage(file_, &got));
    SlottedPage page(h.data());
    page.Init();
    ASSERT_OK(page.AddItem(Slice(std::to_string(b))).status());
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  pool.CrashDiscardAll();
  // Damage block 12 on disk, inside a read-ahead run of the scan below.
  uint8_t raw[kPageSize];
  StorageManager* smgr = smgrs_.Get(0).value();
  ASSERT_OK(smgr->ReadBlock(1, 12, raw));
  raw[4000] ^= 0xFF;
  ASSERT_OK(smgr->WriteBlock(1, 12, raw));
  // The good pages read, prefetched or not; only the demand read of the
  // damaged page fails.
  for (BlockNumber b = 0; b < 20; ++b) {
    Result<PageHandle> h = pool.GetPage({file_, b});
    if (b == 12) {
      ASSERT_FALSE(h.ok());
      EXPECT_TRUE(h.status().IsCorruption()) << h.status().ToString();
      continue;
    }
    ASSERT_TRUE(h.ok()) << "block " << b << ": " << h.status().ToString();
    SlottedPage page(h.value().data());
    ASSERT_OK_AND_ASSIGN(Slice item, page.GetItem(0));
    EXPECT_EQ(item.ToString(), std::to_string(b));
  }
  EXPECT_GT(Count(stats_, "readahead_pages"), 0u);
}

// A main-memory storage manager that holds the next read, or the next
// write, that covers one block until the test releases it, then completes
// it (or fails it with a chosen status, before any byte is written).
class HoldingSmgr : public MainMemorySmgr {
 public:
  HoldingSmgr() : MainMemorySmgr(nullptr) {}

  void HoldNextRead(BlockNumber block, Status result = Status::OK()) {
    Arm(/*write=*/false, block, std::move(result));
  }
  void HoldNextWrite(BlockNumber block, Status result = Status::OK()) {
    Arm(/*write=*/true, block, std::move(result));
  }
  /// Waits up to `timeout` for the held read to start.
  bool WaitHeld(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(hold_mu_);
    return hold_cv_.wait_for(lock, timeout, [&] { return held_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(hold_mu_);
    released_ = true;
    hold_cv_.notify_all();
  }
  /// ReadBlocks runs that covered the held block so far.
  int reads_of_block() {
    std::lock_guard<std::mutex> lock(hold_mu_);
    return reads_;
  }
  /// WriteBlocks runs that covered the held block so far.
  int writes_of_block() {
    std::lock_guard<std::mutex> lock(hold_mu_);
    return writes_;
  }
  /// Every ReadBlocks call so far.
  int all_reads() {
    std::lock_guard<std::mutex> lock(hold_mu_);
    return all_reads_;
  }

  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override {
    PGLO_RETURN_IF_ERROR(Pass(/*write=*/false, start, nblocks));
    return MainMemorySmgr::ReadBlocks(relfile, start, nblocks, buf);
  }
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override {
    PGLO_RETURN_IF_ERROR(Pass(/*write=*/true, start, nblocks));
    return MainMemorySmgr::WriteBlocks(relfile, start, nblocks, buf);
  }

 private:
  void Arm(bool write, BlockNumber block, Status result) {
    std::lock_guard<std::mutex> lock(hold_mu_);
    write_ = write;
    block_ = block;
    result_ = std::move(result);
    armed_ = true;
    held_ = false;
    released_ = false;
    reads_ = 0;
    writes_ = 0;
  }
  /// Counts a run and, if it is the armed one, holds it until released.
  Status Pass(bool write, BlockNumber start, uint32_t nblocks) {
    std::unique_lock<std::mutex> lock(hold_mu_);
    if (!write) ++all_reads_;
    if (start > block_ || block_ - start >= nblocks) return Status::OK();
    ++(write ? writes_ : reads_);
    if (!armed_ || write != write_) return Status::OK();
    armed_ = false;
    held_ = true;
    hold_cv_.notify_all();
    hold_cv_.wait(lock, [&] { return released_; });
    return result_;
  }

  std::mutex hold_mu_;
  std::condition_variable hold_cv_;
  bool write_ = false;
  BlockNumber block_ = 0;
  Status result_;
  bool armed_ = false;
  bool held_ = false;
  bool released_ = false;
  int reads_ = 0;
  int writes_ = 0;
  int all_reads_ = 0;
};

// One read held in flight inside the storage manager must not stall the
// pool: other backends' hits and misses finish, and a second reader of
// the held page waits for that one read instead of issuing its own.
class InFlightReadTest : public ::testing::Test {
 protected:
  static constexpr auto kBound = std::chrono::seconds(5);
  static constexpr BlockNumber kHeld = 8;

  InFlightReadTest() {
    auto smgr = std::make_unique<HoldingSmgr>();
    smgr_ = smgr.get();
    EXPECT_OK(smgrs_.Register(0, std::move(smgr)));
    EXPECT_OK(smgr_->CreateFile(1));
    waits_.Bind(&stats_, nullptr, 0);
    pool_ = std::make_unique<BufferPool>(&smgrs_, 32);
    pool_->BindStats(&stats_);
    pool_->BindWaits(&waits_);
    PopulateAndEmpty(pool_.get(), file_, 16, &stats_);
  }

  /// Reads block `b` on another thread; yields its byte at `offset`.
  std::future<Result<uint8_t>> ReadAsync(BlockNumber b, size_t offset = 0) {
    return std::async(std::launch::async,
                      [this, b, offset]() -> Result<uint8_t> {
                        PGLO_ASSIGN_OR_RETURN(PageHandle h,
                                              pool_->GetPage({file_, b}));
                        return h.data()[offset];
                      });
  }

  /// Waits until `n` backends have waited on in-flight I/O, up to the
  /// deadline.
  bool IoWaitsReach(uint64_t n,
                    std::chrono::steady_clock::time_point deadline) {
    Counter* waits = stats_.counter("wait.bufpool.io_wait.contended");
    while (waits->value() < n) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  RelFileId file_{0, 1};
  SmgrRegistry smgrs_;
  HoldingSmgr* smgr_ = nullptr;
  StatsRegistry stats_;
  WaitStatsTable waits_;
  std::unique_ptr<BufferPool> pool_;
};

// Releases a held read on scope exit. Declared after every future of a
// test, so a failed assertion releases the read before any future joins a
// thread stuck behind it.
struct ReleaseOnExit {
  HoldingSmgr* smgr;
  ~ReleaseOnExit() { smgr->Release(); }
};

TEST_F(InFlightReadTest, OtherBackendsProceedWhileAReadIsHeld) {
  for (BlockNumber b = 0; b < 4; ++b) {  // resident: later reads are hits
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->GetPage({file_, b}));
  }
  stats_.Reset();
  std::future<Result<uint8_t>> held, second;
  std::vector<std::pair<BlockNumber, std::future<Result<uint8_t>>>> others;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextRead(kHeld);
  auto deadline = std::chrono::steady_clock::now() + kBound;
  held = ReadAsync(kHeld);
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  // While the read is held: a second reader of the same page waits for
  // it, and hits and misses on other pages finish.
  second = ReadAsync(kHeld);
  for (BlockNumber b : {0u, 1u, 2u, 3u, 10u, 11u}) {
    others.emplace_back(b, ReadAsync(b));
  }
  for (auto& [b, f] : others) {
    ASSERT_EQ(f.wait_until(deadline), std::future_status::ready)
        << "block " << b << " stalled behind the held read";
    Result<uint8_t> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), static_cast<uint8_t>(b + 1));
  }
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  EXPECT_NE(second.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  smgr_->Release();
  for (auto* f : {&held, &second}) {
    Result<uint8_t> r = f->get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), static_cast<uint8_t>(kHeld + 1));
  }
  // One read served both readers of the held page.
  EXPECT_EQ(smgr_->reads_of_block(), 1);
  EXPECT_EQ(stats_.counter("wait.bufpool.io_wait.contended")->value(), 1u);
  EXPECT_EQ(Count(stats_, "misses"), 3u);  // the held page, 10 and 11
  EXPECT_EQ(Count(stats_, "hits"), 5u);  // 0-3, and the page's 2nd reader
}

TEST_F(InFlightReadTest, FailedHeldReadWakesWaiterToReadAgain) {
  std::future<Result<uint8_t>> held, second;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextRead(kHeld, Status::IOError("injected read failure"));
  auto deadline = std::chrono::steady_clock::now() + kBound;
  held = ReadAsync(kHeld);
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  second = ReadAsync(kHeld);
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  smgr_->Release();
  Result<uint8_t> failed = held.get();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
  // The waiter found the frame unpublished and read the page itself.
  Result<uint8_t> r = second.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), static_cast<uint8_t>(kHeld + 1));
  EXPECT_EQ(smgr_->reads_of_block(), 2);
  EXPECT_EQ(Count(stats_, "misses"), 2u);
}

TEST_F(InFlightReadTest, OverwritePageNeverReads) {
  { ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->GetPage({file_, 3})); }
  stats_.Reset();
  const int reads = smgr_->all_reads();
  for (BlockNumber b : {3u, 12u}) {  // resident, then missing
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->OverwritePage({file_, b}));
    std::memset(h.data(), 0xEE, kPageSize);
  }
  EXPECT_EQ(smgr_->all_reads(), reads);
  EXPECT_EQ(Count(stats_, "hits"), 0u);
  EXPECT_EQ(Count(stats_, "misses"), 0u);
  // The handle came back dirty: both pages reach the storage manager.
  ASSERT_OK(pool_->FlushAll());
  for (BlockNumber b : {3u, 12u}) {
    uint8_t buf[kPageSize];
    ASSERT_OK(smgr_->ReadBlock(1, b, buf));
    EXPECT_EQ(buf[0], 0xEE) << "block " << b;
  }
}

TEST_F(InFlightReadTest, OverwritePageWaitsOutAnInFlightRead) {
  std::future<Result<uint8_t>> held;
  std::future<Result<PageHandle>> overwrite;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextRead(kHeld);
  auto deadline = std::chrono::steady_clock::now() + kBound;
  held = ReadAsync(kHeld);
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  overwrite = std::async(std::launch::async, [this] {
    return pool_->OverwritePage({file_, kHeld});
  });
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  EXPECT_NE(overwrite.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  smgr_->Release();
  Result<uint8_t> r = held.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), static_cast<uint8_t>(kHeld + 1));
  // The overwrite pinned the frame that read filled.
  Result<PageHandle> h = overwrite.get();
  ASSERT_TRUE(h.ok()) << h.status().ToString();
  EXPECT_EQ(h.value().data()[0], static_cast<uint8_t>(kHeld + 1));
  EXPECT_EQ(smgr_->reads_of_block(), 1);
  EXPECT_EQ(Count(stats_, "misses"), 1u);
  EXPECT_EQ(Count(stats_, "hits"), 0u);
}

// A flush's write held in the storage manager must not stall the pool
// either: the flush writes with no latch held, so only the pages being
// written wait for it.
class InFlightWriteTest : public InFlightReadTest {
 protected:
  /// Sets byte 1 of block `b` to `byte` and leaves the page dirty.
  void Dirty(BlockNumber b, uint8_t byte) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->GetPage({file_, b}));
    h.data()[1] = byte;
    h.MarkDirty();
  }

  std::future<Status> FlushAsync() {
    return std::async(std::launch::async, [this] { return pool_->FlushAll(); });
  }

  /// Byte 1 of block `b` as the storage manager holds it.
  uint8_t Stored(BlockNumber b) {
    uint8_t buf[kPageSize];
    EXPECT_OK(smgr_->ReadBlock(file_.relfile, b, buf));
    return buf[1];
  }
};

TEST_F(InFlightWriteTest, OtherBackendsProceedWhileAFlushWriteIsHeld) {
  for (BlockNumber b = 0; b < 4; ++b) {  // resident: later reads are hits
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->GetPage({file_, b}));
  }
  Dirty(kHeld, 0x77);
  const RelFileId other{0, 2};
  ASSERT_OK(smgr_->CreateFile(other.relfile));
  stats_.Reset();
  std::future<Status> flush, second_flush;
  std::future<Result<uint8_t>> reread, overwrite;
  std::future<Result<BlockNumber>> append;
  std::vector<std::pair<BlockNumber, std::future<Result<uint8_t>>>> others;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextWrite(kHeld);
  auto deadline = std::chrono::steady_clock::now() + kBound;
  flush = FlushAsync();
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  // While the write is held: hits and misses on other pages and an append
  // to another file finish.
  for (BlockNumber b : {0u, 1u, 2u, 3u, 10u, 11u}) {
    others.emplace_back(b, ReadAsync(b));
  }
  append = std::async(std::launch::async, [&]() -> Result<BlockNumber> {
    BlockNumber block;
    PGLO_ASSIGN_OR_RETURN(PageHandle h, pool_->NewPage(other, &block));
    return block;
  });
  for (auto& [b, f] : others) {
    ASSERT_EQ(f.wait_until(deadline), std::future_status::ready)
        << "block " << b << " stalled behind the held write";
    Result<uint8_t> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), static_cast<uint8_t>(b + 1));
  }
  ASSERT_EQ(append.wait_until(deadline), std::future_status::ready)
      << "an append stalled behind the held write";
  Result<BlockNumber> appended = append.get();
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended.value(), 0u);
  // The page being written waits for its write, for a reader and an
  // overwriter alike, and so does a second flush.
  reread = ReadAsync(kHeld, 1);
  overwrite = std::async(std::launch::async, [this]() -> Result<uint8_t> {
    PGLO_ASSIGN_OR_RETURN(PageHandle h, pool_->OverwritePage({file_, kHeld}));
    return h.data()[1];
  });
  second_flush = FlushAsync();
  ASSERT_TRUE(IoWaitsReach(2, deadline));
  EXPECT_EQ(second_flush.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  EXPECT_NE(reread.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  EXPECT_NE(overwrite.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  EXPECT_NE(Stored(kHeld), 0x77);
  smgr_->Release();
  ASSERT_OK(flush.get());
  ASSERT_OK(second_flush.get());
  EXPECT_EQ(Stored(kHeld), 0x77);
  for (auto* f : {&reread, &overwrite}) {
    Result<uint8_t> r = f->get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), 0x77);
  }
  EXPECT_EQ(stats_.counter("wait.bufpool.io_wait.contended")->value(), 2u);
  EXPECT_EQ(Count(stats_, "misses"), 2u);  // 10 and 11
}

TEST_F(InFlightWriteTest, DiscardFileWaitsOutAHeldWrite) {
  Dirty(kHeld, 0x77);
  stats_.Reset();
  std::future<Status> flush;
  std::future<void> discard;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextWrite(kHeld);
  auto deadline = std::chrono::steady_clock::now() + kBound;
  flush = FlushAsync();
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  discard =
      std::async(std::launch::async, [this] { pool_->DiscardFile(file_); });
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  EXPECT_NE(discard.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  smgr_->Release();
  ASSERT_OK(flush.get());
  discard.get();
  // The discard dropped the page once its write landed: reading it again
  // misses and finds the written bytes.
  stats_.Reset();
  Result<uint8_t> r = ReadAsync(kHeld, 1).get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 0x77);
  EXPECT_EQ(Count(stats_, "misses"), 1u);
}

TEST_F(InFlightWriteTest, FailedHeldWriteLeavesThePageDirty) {
  Dirty(kHeld, 0x77);
  std::future<Status> flush;
  std::future<Result<uint8_t>> reread;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextWrite(kHeld, Status::IOError("injected write failure"));
  auto deadline = std::chrono::steady_clock::now() + kBound;
  flush = FlushAsync();
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  reread = ReadAsync(kHeld, 1);
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  smgr_->Release();
  Status failed = flush.get();
  ASSERT_TRUE(failed.IsIOError()) << failed.ToString();
  Result<uint8_t> r = reread.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 0x77);
  EXPECT_NE(Stored(kHeld), 0x77);
  // The page stayed dirty, so the next flush writes it.
  ASSERT_OK(pool_->FlushAll());
  EXPECT_EQ(Stored(kHeld), 0x77);
  EXPECT_EQ(smgr_->writes_of_block(), 2);
}

TEST_F(InFlightWriteTest, MissWaitsWhenOnlyPagesBeingWrittenAreEvictable) {
  // Fill every frame with a dirty page: the 16 stored blocks, then 16
  // appended ones. A flush then marks them all, and holds its first write.
  for (BlockNumber b = 0; b < 16; ++b) Dirty(b, 0x55);
  for (BlockNumber b = 16; b < pool_->num_frames(); ++b) {
    BlockNumber got;
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool_->NewPage(file_, &got));
    h.data()[0] = static_cast<uint8_t>(got + 1);
    h.MarkDirty();
  }
  const RelFileId other{0, 2};
  ASSERT_OK(smgr_->CreateFile(other.relfile));
  uint8_t page[kPageSize] = {0x42};
  ASSERT_OK(smgr_->WriteBlock(other.relfile, 0, page));
  stats_.Reset();
  std::future<Status> flush;
  std::future<Result<uint8_t>> miss;
  ReleaseOnExit release{smgr_};
  smgr_->HoldNextWrite(0);
  auto deadline = std::chrono::steady_clock::now() + kBound;
  flush = FlushAsync();
  ASSERT_TRUE(smgr_->WaitHeld(kBound));
  // A miss finds no victim but pages being written: it waits for a write
  // to end rather than failing.
  miss = std::async(std::launch::async, [&]() -> Result<uint8_t> {
    PGLO_ASSIGN_OR_RETURN(PageHandle h, pool_->GetPage({other, 0}));
    return h.data()[0];
  });
  ASSERT_TRUE(IoWaitsReach(1, deadline));
  EXPECT_NE(miss.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  smgr_->Release();
  ASSERT_OK(flush.get());
  Result<uint8_t> r = miss.get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 0x42);
}

TEST_F(BufferPoolTest, ConcurrentMissesSeeTheirOwnPages) {
  // Four backends scan and randomly read a file four times the pool, with
  // read-ahead on, so their misses, prefetches and evictions overlap
  // outside the pool mutex. Every read must see its own page's bytes.
  BufferPool pool(&smgrs_, 64);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 256, &stats_);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(testing::TestSeed() + t);
      for (uint32_t i = 0; i < 600; ++i) {
        BlockNumber b = i < 256 ? (i + 64 * t) % 256
                                : static_cast<BlockNumber>(rnd.Uniform(256));
        Result<PageHandle> h = pool.GetPage({file_, b});
        if (!h.ok() || h.value().data()[0] != static_cast<uint8_t>(b + 1)) {
          ++wrong;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(Count(stats_, "hits") + Count(stats_, "misses"), 4u * 600u);
  EXPECT_GT(Count(stats_, "readahead_pages"), 0u);
}

TEST_F(BufferPoolTest, ConcurrentWriteBackRacesHits) {
  // Four backends share a pool a quarter the size of their pages. Each
  // rewrites pages of its own file and reads a shared one, and backend 0
  // flushes now and then, so dirty victims (which freeze the pool),
  // flushes waiting out pins and clean evictions race with stripe hits.
  constexpr int kThreads = 4;
  constexpr BlockNumber kShared = 128;
  constexpr BlockNumber kOwn = 32;
  constexpr uint32_t kAccesses = 1500;
  StorageManager* smgr = smgrs_.Get(0).value();
  BufferPool pool(&smgrs_, 64);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, kShared, &stats_);
  std::vector<RelFileId> own;
  for (int t = 0; t < kThreads; ++t) {
    own.push_back({0, static_cast<Oid>(2 + t)});
    ASSERT_OK(smgr->CreateFile(own.back().relfile));
    PopulateAndEmpty(&pool, own.back(), kOwn, &stats_);
  }
  // last[t][b]: the version backend t last wrote to its block b (0 = the
  // populated page, first byte b + 1).
  std::vector<std::vector<uint32_t>> last(
      kThreads, std::vector<uint32_t>(kOwn, 0));
  std::atomic<int> wrong{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(testing::TestSeed() + t);
      for (uint32_t i = 0; i < kAccesses; ++i) {
        if (t == 0 && i % 100 == 99 && !pool.FlushAll().ok()) ++failed;
        if (i % 3 == 0) {
          BlockNumber b = static_cast<BlockNumber>(rnd.Uniform(kOwn));
          Result<PageHandle> h = pool.GetPage({own[t], b});
          if (!h.ok()) {
            ++failed;
            continue;
          }
          uint32_t version = i + 1;
          std::memcpy(h.value().data() + 8, &version, sizeof(version));
          h.value().MarkDirty();
          last[t][b] = version;
        } else {
          BlockNumber b = i % 2 == 0 ? (i / 2 + 32 * t) % kShared
                                     : static_cast<BlockNumber>(
                                           rnd.Uniform(kShared));
          Result<PageHandle> h = pool.GetPage({file_, b});
          if (!h.ok()) {
            ++failed;
          } else if (h.value().data()[0] != static_cast<uint8_t>(b + 1)) {
            ++wrong;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
  ASSERT_OK(pool.FlushAll());
  EXPECT_EQ(Count(stats_, "hits") + Count(stats_, "misses"),
            kThreads * kAccesses);
  EXPECT_GT(Count(stats_, "evictions"), 0u);
  EXPECT_GT(Count(stats_, "writebacks"), 0u);
  // Every page reads back its last bytes through a fresh pool.
  BufferPool fresh(&smgrs_, 64);
  for (int t = 0; t < kThreads; ++t) {
    for (BlockNumber b = 0; b < kOwn; ++b) {
      ASSERT_OK_AND_ASSIGN(PageHandle h, fresh.GetPage({own[t], b}));
      uint32_t version;
      std::memcpy(&version, h.data() + 8, sizeof(version));
      EXPECT_EQ(h.data()[0], static_cast<uint8_t>(b + 1));
      EXPECT_EQ(version, last[t][b]) << "backend " << t << " block " << b;
    }
  }
}

TEST_F(BufferPoolTest, VictimOrderAcrossStripes) {
  // One stream over a pool whose pages fall in many stripes: the victims
  // are exactly those of one LRU list (the stamp-ordered merge of the
  // stripes' lists), with read-ahead frames entering it in block order
  // before the page that faulted them.
  BufferPool pool(&smgrs_, 32);
  pool.BindStats(&stats_);
  pool.SetReadAhead(8);
  PopulateAndEmpty(&pool, file_, 80, &stats_);
  auto touch = [&](BlockNumber b, bool dirty = false) {
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.GetPage({file_, b}));
    if (dirty) h.MarkDirty();
  };
  // Ten scattered misses, no streak: the LRU is 40 44 ... 76, with 44
  // dirty.
  for (BlockNumber b = 40; b < 80; b += 4) touch(b, b == 44);
  // A scan of 0..11: misses at 0, 1, 2 (reads 2-3), 4 (4-7) and 8 (8-15);
  // the rest are hits on prefetched frames. 26 of 32 frames now in use.
  for (BlockNumber b = 0; b < 12; ++b) touch(b);
  // Hits move 48 and 40 to the young end. The list, oldest first:
  //   44 52 56 60 64 68 72 76 | 0-7 | 12 13 14 15 8 | 9 10 11 | 48 40
  // (each prefetched frame joined it when its read finished, before the
  // page that faulted the read was released).
  touch(48);
  touch(40);
  // 25 more misses with no streak: 6 take the free frames, 19 evict the
  // oldest pages through 14 (44 is written back first), so 8 outlives 12.
  // (Odd blocks first: the scan's detector expects 16 next.)
  std::vector<BlockNumber> late;
  for (BlockNumber b = 17; b < 40; b += 2) late.push_back(b);
  for (BlockNumber b = 16; b < 40; b += 2) late.push_back(b);
  late.push_back(79);
  for (BlockNumber b : late) touch(b);
  EXPECT_EQ(Count(stats_, "misses"), 40u);
  EXPECT_EQ(Count(stats_, "readahead_pages"), 11u);
  EXPECT_EQ(Count(stats_, "evictions"), 19u);
  EXPECT_EQ(Count(stats_, "writebacks"), 1u);
  // The 32 survivors fill the pool, so probing each one as a hit proves
  // the resident set is exactly them.
  stats_.Reset();
  std::vector<BlockNumber> resident = {15, 8, 9, 10, 11, 48, 40};
  resident.insert(resident.end(), late.begin(), late.end());
  ASSERT_EQ(resident.size(), pool.num_frames());
  for (BlockNumber b : resident) {
    touch(b);
    EXPECT_EQ(Count(stats_, "misses"), 0u) << "block " << b << " was evicted";
  }
  EXPECT_EQ(Count(stats_, "hits"), 32u);
}

TEST(BufferPoolClusteringTest, EvictionWritesAreClustered) {
  // A workload that appends to one region while reading another must not
  // pay a head seek per evicted page: the background-writer batch sorts
  // and clusters the write-backs.
  pglo::testing::TempDir dir;
  SimClock clock;
  MagneticDiskModel device(&clock, DiskModelParams{});
  StatsRegistry stats;
  stats.SetClock(&clock);  // command counts are the histograms' counts
  device.BindStats(&stats, "disk");
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<DiskSmgr>(dir.Sub("d"),
                                                         &device)));
  StorageManager* smgr = smgrs.Get(0).value();
  ASSERT_OK(smgr->CreateFile(1));
  ASSERT_OK(smgr->CreateFile(2));
  // Pre-populate file 1 with 400 read-target pages (uncharged via direct
  // smgr writes counted separately).
  uint8_t zero[kPageSize] = {};
  for (BlockNumber b = 0; b < 400; ++b) {
    ASSERT_OK(smgr->WriteBlock(1, b, zero));
  }
  stats.Reset();

  BufferPool pool(&smgrs, 64);
  // Interleave: read file 1 sequentially, append dirty pages to file 2.
  for (int i = 0; i < 400; ++i) {
    {
      ASSERT_OK_AND_ASSIGN(PageHandle h,
                           pool.GetPage({{0, 1}, static_cast<uint32_t>(i)}));
    }
    BlockNumber nb;
    ASSERT_OK_AND_ASSIGN(PageHandle h, pool.NewPage({0, 2}, &nb));
    h.data()[0] = 1;
    h.MarkDirty();
  }
  ASSERT_OK(pool.FlushAll());
  // Without clustering every eviction would seek (~800 writes + 400 reads
  // all random): seeks ≈ I/O count. With 64-page batches, seeks are a
  // small fraction.
  uint64_t ios = stats.histogram("device.disk.read_ns")->count() +
                 stats.histogram("device.disk.write_ns")->count();
  uint64_t seeks = stats.counter("device.disk.seeks")->value();
  EXPECT_LT(seeks, ios / 3) << "seeks " << seeks << " of " << ios
                            << " I/Os";
}

}  // namespace
}  // namespace pglo

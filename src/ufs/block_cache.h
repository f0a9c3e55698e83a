#ifndef PGLO_UFS_BLOCK_CACHE_H_
#define PGLO_UFS_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "device/cpu_cost.h"
#include "device/device_model.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "obs/stats.h"
#include "storage/page.h"
#include "storage/read_ahead.h"

namespace pglo {

/// Write-back LRU block cache over a host backing file: the "operating
/// system buffer cache" of the simulated UNIX file system. Device-model
/// charges happen only on cache misses and write-backs, exactly as a real
/// buffer cache hides disk traffic.
class UfsBlockCache {
 public:
  /// `device` may be null (no time charging).
  UfsBlockCache(DeviceModel* device, size_t capacity_blocks);
  ~UfsBlockCache();

  /// Opens (creating if necessary) the backing host file.
  Status Open(const std::string& path);

  /// Charges `instructions` of simulated CPU per block access — the OS
  /// buffer cache's lookup/copy cost, mirroring BufferPool::SetAccessCost
  /// so the native-file-system baseline pays comparable CPU per hop.
  void SetAccessCost(CpuCostModel* cpu, uint64_t instructions) {
    cpu_ = cpu;
    access_instructions_ = instructions;
  }

  /// Sequential read-ahead window in blocks, mirroring the buffer pool's:
  /// a miss on the physical block the detector expected next pulls the
  /// whole window from the backing store with one device command, clipped
  /// to the written extent of the backing file. Any value > 0 also
  /// coalesces adjacent dirty blocks into vectored write-backs; 0 keeps
  /// the historical one-command-per-block behaviour.
  void SetReadAhead(uint32_t pages) { readahead_pages_ = pages; }

  /// Installs crash/transient hooks on the backing-store accesses (the
  /// UFS's "raw device"). Torn vectored write-backs apply a block-aligned
  /// prefix. No corruption injection here: the backing file holds raw user
  /// bytes with no checksum to catch a flip, so an injected flip would be
  /// indistinguishable from workload data. Null detaches.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Retry policy for transient backing-store failures, mirroring the
  /// buffer pool's. Defaults to a single attempt.
  void SetRetryPolicy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Mirrors cache and backing-store accounting into `registry` counters
  /// under `ufs.*`. Null registry = unbound (no overhead).
  void BindStats(StatsRegistry* registry) {
    if (registry == nullptr) return;
    c_hits_ = registry->counter("ufs.cache.hits");
    c_misses_ = registry->counter("ufs.cache.misses");
    c_blocks_read_ = registry->counter("ufs.blocks_read");
    c_blocks_written_ = registry->counter("ufs.blocks_written");
  }

  /// Copies block `block` into `buf`, reading through on a miss.
  Status Read(uint32_t block, uint8_t* buf);

  /// Installs new contents for `block` (dirty in cache; written back on
  /// eviction or Flush). Extends the backing file as needed.
  Status Write(uint32_t block, const uint8_t* buf);

  /// Writes back all dirty blocks and fsyncs the backing file.
  Status Flush();

  /// Drops the entire cache, losing dirty blocks (crash simulation).
  void CrashDiscard();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::vector<uint8_t> data;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_pos;
  };

  /// One device command for `nblocks` consecutive backing blocks.
  Status ReadBackingRun(uint32_t block, uint32_t nblocks, uint8_t* buf);
  Status WriteBackingRun(uint32_t block, uint32_t nblocks,
                         const uint8_t* buf);
  /// Writes back a sorted list of dirty cached blocks, coalescing
  /// consecutive runs; at read-ahead window 0 every run is one block.
  Status WriteBackSorted(const std::vector<uint32_t>& sorted);
  Status EvictIfFull();
  void Touch(uint32_t block, Entry& e);

  DeviceModel* device_;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_policy_;
  CpuCostModel* cpu_ = nullptr;
  uint64_t access_instructions_ = 0;
  size_t capacity_;
  int fd_ = -1;
  uint32_t readahead_pages_ = 0;
  ReadAhead readahead_;  ///< detector on physical blocks
  uint32_t backing_blocks_ = 0;  ///< written extent; read-ahead never
                                 ///< charges for virgin (all-zero) blocks
  /// Separate staging buffers: eviction (and thus a coalesced write-back)
  /// can fire while prefetched data is still being copied out of the read
  /// buffer.
  std::vector<uint8_t> scratch_;
  std::vector<uint8_t> write_scratch_;
  std::unordered_map<uint32_t, Entry> cache_;
  std::list<uint32_t> lru_;  // front = least recently used
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  Counter* c_hits_ = nullptr;
  Counter* c_misses_ = nullptr;
  Counter* c_blocks_read_ = nullptr;
  Counter* c_blocks_written_ = nullptr;
};

}  // namespace pglo

#endif  // PGLO_UFS_BLOCK_CACHE_H_

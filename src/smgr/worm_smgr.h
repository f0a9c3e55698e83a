#ifndef PGLO_SMGR_WORM_SMGR_H_
#define PGLO_SMGR_WORM_SMGR_H_

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/device_model.h"
#include "obs/event_log.h"
#include "smgr/smgr.h"
#include "storage/page.h"

namespace pglo {

class FaultInjector;

/// WORM optical jukebox storage manager (§7, [OLSO91]).
///
/// The optical platter is write-once: a logical block that is rewritten is
/// *relocated* to a freshly burned optical block and the old copy becomes
/// dead platter space (this is how the device extensibility work handled
/// POSTGRES's no-overwrite pages on tertiary storage). A logical→optical
/// relocation map is kept durable in a sidecar file.
///
/// "The WORM storage manager in POSTGRES maintains a magnetic disk cache of
/// optical disk blocks" (§9.3): reads probe an LRU block cache charged at
/// magnetic-disk rates; only misses pay the jukebox's seek and transfer
/// costs. This cache is what makes f-chunk on WORM dramatically beat a raw
/// jukebox reader on random and 80/20 workloads (Figure 3).
class WormSmgr : public StorageManager {
 public:
  /// `optical_device` prices jukebox accesses, `cache_device` prices the
  /// magnetic cache (either may be null to skip charging).
  /// `cache_blocks` is the cache capacity in 8 KB blocks.
  WormSmgr(std::string dir, DeviceModel* optical_device,
           DeviceModel* cache_device, size_t cache_blocks);
  ~WormSmgr() override;

  /// Opens the optical store and replays the relocation map.
  Status Open();

  Status CreateFile(Oid relfile) override;
  Status DropFile(Oid relfile) override;
  bool FileExists(Oid relfile) override;
  Result<BlockNumber> NumBlocks(Oid relfile) override;
  /// Serves the run from the cache where resident; cache misses are grouped
  /// into maximal consecutive-*optical* sub-runs, each charged to the
  /// jukebox once, and the cache is filled with every block of each
  /// sub-run.
  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override;
  /// Burns the run onto consecutive optical blocks with one jukebox charge;
  /// write-once semantics are per block (rewritten logicals relocate).
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override;
  Status Sync(Oid relfile) override;
  /// Platter bytes ever burned for this file, including relocated (dead)
  /// blocks — write-once media cannot reclaim them.
  Result<uint64_t> StorageBytes(Oid relfile) override;
  std::string name() const override { return "worm"; }

  /// Base block I/O counters plus the §9.3 cache/jukebox breakdown:
  /// `smgr.worm.{cache_hits,cache_misses}` (blocks served from, and
  /// missing in, the magnetic-disk cache), `optical_{reads,writes}`
  /// (blocks moved by the jukebox) and `relocations` (rewrites of a
  /// logical block: wasted platter).
  void BindStats(StatsRegistry* registry) override {
    StorageManager::BindStats(registry);
    if (registry == nullptr) return;
    c_cache_hits_ = registry->counter("smgr.worm.cache_hits");
    c_cache_misses_ = registry->counter("smgr.worm.cache_misses");
    c_optical_reads_ = registry->counter("smgr.worm.optical_reads");
    c_optical_writes_ = registry->counter("smgr.worm.optical_writes");
    c_relocations_ = registry->counter("smgr.worm.relocations");
  }
  /// Empties the magnetic-disk cache (benchmarks use this to cold-start).
  void DropCache();

  /// Installs crash/corruption hooks on the burner and the relocation-map
  /// appender. WormSmgr is not wrapped in FaultyStorageManager (that would
  /// double-count its internal writes), so it consults the injector
  /// directly: the burn and the map append are separate write ticks, which
  /// is exactly the window the write-once relocation crash test targets.
  /// Must be set before Open(). Null detaches.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Structured-event sink; Open() reports relocation-map repairs
  /// (kRecoveryRepair) through it. Must be set before Open(). Null = silent.
  void SetEventLog(EventLog* events) { events_ = events; }

  /// Optical blocks burned but never recorded in the relocation map — the
  /// leak a crash between burn and map append leaves behind. Dead platter
  /// space, not corruption: no logical block points at them. Reported by
  /// fsck as an informational count.
  uint64_t OrphanedBlocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_optical_ - mapped_burn_records_;
  }

 private:
  static constexpr uint32_t kNoOptical = 0xffffffffu;

  struct FileState {
    std::vector<uint32_t> map;     ///< logical block -> optical block
    uint64_t blocks_burned = 0;    ///< total optical blocks ever written
    bool dropped = false;
  };

  struct CacheKey {
    Oid relfile;
    BlockNumber block;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.relfile) << 32) |
                                   k.block);
    }
  };
  struct CacheEntry {
    std::vector<uint8_t> data;
    std::list<CacheKey>::iterator lru_pos;
    uint64_t disk_slot = 0;  ///< simulated position in the staging area
  };

  Status AppendMapRecord(Oid relfile, BlockNumber logical, uint32_t optical);
  Status ReadOpticalRun(uint32_t optical, uint32_t nblocks, uint8_t* buf);
  Status BurnOpticalRun(uint32_t optical, uint32_t nblocks,
                        const uint8_t* buf);
  void CacheInsert(Oid relfile, BlockNumber block, const uint8_t* buf);
  bool CacheLookup(Oid relfile, BlockNumber block, uint8_t* buf);
  void CacheErase(Oid relfile, BlockNumber block);

  std::string dir_;
  DeviceModel* optical_device_;
  DeviceModel* cache_device_;
  size_t cache_capacity_;

  // One lock over the relocation map, the optical append frontier and the
  // magnetic cache — every operation touches several of them (a read
  // probes the cache then fills it; a write burns, appends a map record,
  // and updates the file map), so finer locks would have to be held
  // together anyway. Public entry points take it; private helpers assume
  // it.
  mutable std::mutex mu_;

  int optical_fd_ = -1;
  int map_fd_ = -1;
  uint32_t next_optical_ = 0;
  /// Data records in the relocation map, i.e. burns that were durably
  /// mapped. next_optical_ minus this = orphaned blocks.
  uint64_t mapped_burn_records_ = 0;
  FaultInjector* injector_ = nullptr;
  EventLog* events_ = nullptr;
  std::unordered_map<Oid, FileState> files_;

  std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
  std::list<CacheKey> cache_lru_;  ///< front = least recently used
  /// Fill rotor: the staging area is written like a circular log, so
  /// consecutive cache fills land on consecutive magnetic-disk blocks.
  uint64_t cache_fill_rotor_ = 0;

  Counter* c_cache_hits_ = nullptr;
  Counter* c_cache_misses_ = nullptr;
  Counter* c_optical_reads_ = nullptr;
  Counter* c_optical_writes_ = nullptr;
  Counter* c_relocations_ = nullptr;
};

}  // namespace pglo

#endif  // PGLO_SMGR_WORM_SMGR_H_

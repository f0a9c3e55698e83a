#ifndef PGLO_UFS_UFS_H_
#define PGLO_UFS_UFS_H_

#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device_model.h"
#include "smgr/smgr_registry.h"
#include "storage/buffer_pool.h"
#include "ufs/inode.h"
#include "ufs/ufs_device.h"

namespace pglo {

/// Miniature UNIX (Berkeley FFS-style) file system over a simulated disk.
///
/// This is the "native file system" baseline of §9: the u-file and
/// POSTGRES-file ADT implementations store large objects here, and Figure
/// 2's first two columns measure it. It has a superblock, a block
/// allocation bitmap, an inode table with direct/single/double-indirect
/// pointers, a flat root directory, and an OS-style write-back buffer
/// cache — so it pays the same physical costs (indirect-block fetches,
/// read-modify-write of partial blocks) a real 1992 file system paid.
///
/// The buffer cache is a BufferPool of its own, kept apart from the
/// database's, whose one file is the image on a UfsDevice: both sides of
/// Figure 2 cache blocks the same way.
///
/// Not a POSIX implementation: one directory, no permissions, no links.
/// Those are orthogonal to every measured effect.
class UnixFileSystem {
 public:
  struct Params {
    uint32_t capacity_blocks = 65536;  ///< 512 MB at 8 KB blocks
    uint32_t num_inodes = 512;
    size_t cache_blocks = 128;         ///< OS buffer cache size (>= 2)
  };

  /// `device` may be null (no simulated-time charging).
  UnixFileSystem(DeviceModel* device, Params params);
  explicit UnixFileSystem(DeviceModel* device)
      : UnixFileSystem(device, Params()) {}

  /// Creates a fresh file system in host file `backing_path`.
  Status Format(const std::string& backing_path);

  /// Mounts an existing file system from `backing_path`.
  Status Mount(const std::string& backing_path);

  /// Creates an empty file; returns its inode number.
  Result<uint32_t> Create(const std::string& name);

  /// Resolves a name to an inode number.
  Result<uint32_t> Lookup(const std::string& name);

  /// Removes a file and frees its blocks.
  Status Remove(const std::string& name);

  /// Names of all files (excluding the root directory itself).
  Result<std::vector<std::string>> List();

  Result<uint64_t> FileSize(uint32_t ino);

  /// Reads up to `n` bytes at `off`; returns bytes read (short at EOF).
  Result<size_t> ReadAt(uint32_t ino, uint64_t off, size_t n, uint8_t* buf);

  /// Writes `data` at `off`, growing the file as needed. Unwritten gaps
  /// read as zeros.
  Status WriteAt(uint32_t ino, uint64_t off, Slice data);

  /// Shrinks or grows the file to `size` (growing leaves a hole).
  Status Truncate(uint32_t ino, uint64_t size);

  /// Flushes the buffer cache and fsyncs the backing file when anything
  /// reached it since the last sync.
  Status Sync();

  /// Drops all cached state without writing back (crash simulation).
  void CrashDiscard() {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    pool_.CrashDiscardAll();
  }

  /// Logical size of the file (what Figure 1 reports for u-file/p-file —
  /// inodes and indirect blocks are "owned by the directory", per §9.1).
  Result<uint64_t> LogicalBytes(uint32_t ino) { return FileSize(ino); }

  /// Physical bytes actually allocated, counting data + indirect blocks.
  Result<uint64_t> AllocatedBytes(uint32_t ino);

  /// Free data blocks remaining.
  Result<uint32_t> FreeBlocks();

  /// Forwards to the buffer cache's per-access CPU charge.
  void SetAccessCost(CpuCostModel* cpu, uint64_t instructions) {
    pool_.SetAccessCost(cpu, instructions);
  }

  /// Forwards the sequential read-ahead window to the buffer cache.
  void SetReadAhead(uint32_t pages) { pool_.SetReadAhead(pages); }

  /// Forwards crash/transient hooks to the raw device (fault site "ufs").
  void SetFaultInjector(FaultInjector* injector) {
    disk_->SetFaultInjector(injector);
  }

  /// Sets the transient-error retry policy the buffer cache applies to the
  /// raw device.
  void SetRetryPolicy(const RetryPolicy& policy) {
    smgrs_.SetRetryPolicy(policy);
  }

  /// Binds the buffer cache's counters under `ufs.cache.*`, the device's
  /// under `ufs.blocks_{read,written}`, and `ufs.{read,write}` trace spans
  /// with `ufs.{read_ns,write_ns}` histograms around ReadAt/WriteAt.
  void BindStats(StatsRegistry* registry) {
    pool_.BindStats(registry, "ufs.cache");
    disk_->BindStats(registry);
    if (registry == nullptr) return;
    registry_ = registry;
    h_read_ns_ = registry->histogram("ufs.read_ns");
    h_write_ns_ = registry->histogram("ufs.write_ns");
  }

 private:
  static constexpr uint32_t kMagic = 0x55465331;  // "UFS1"
  static constexpr uint32_t kPtrsPerBlock = kPageSize / 4;
  static constexpr uint32_t kRootInode = 0;
  /// The image: the one file of the device, in slot 0 of the UFS's switch.
  static constexpr RelFileId kImage{0, 1};

  // Layout computed from params:
  uint32_t BitmapStart() const { return 1; }
  uint32_t BitmapBlocks() const {
    return (params_.capacity_blocks + kPageSize * 8 - 1) / (kPageSize * 8);
  }
  uint32_t InodeTableStart() const { return BitmapStart() + BitmapBlocks(); }
  uint32_t InodeTableBlocks() const {
    return (params_.num_inodes * UfsInode::kSize + kPageSize - 1) / kPageSize;
  }
  uint32_t DataStart() const { return InodeTableStart() + InodeTableBlocks(); }

  /// Copies block `block` out of the buffer cache, reading it on a miss.
  Status ReadBlock(uint32_t block, uint8_t* buf);
  /// Installs new contents for the whole of `block`; never reads it.
  Status WriteBlock(uint32_t block, const uint8_t* buf);

  Status WriteSuperblock();
  Status ReadSuperblock();

  Result<UfsInode> LoadInode(uint32_t ino);
  Status StoreInode(uint32_t ino, const UfsInode& inode);
  Result<uint32_t> AllocInode();

  Result<uint32_t> AllocBlock();
  Status FreeBlock(uint32_t block);

  /// Maps a logical file block to a physical block. When `alloc` is true,
  /// missing mappings (and indirect blocks) are allocated; otherwise 0 is
  /// returned for holes.
  Result<uint32_t> MapBlock(UfsInode* inode, bool* inode_dirty,
                            uint64_t logical, bool alloc);

  /// Frees every block of the file (data + indirect).
  Status FreeFileBlocks(UfsInode* inode);

  /// Frees the block mapped at `logical` and clears its pointer (direct or
  /// indirect), so the range reads as a hole afterwards.
  Status ClearMapping(UfsInode* inode, uint64_t logical);

  // Root directory entries, serialized into inode 0's data.
  struct DirEntry {
    std::string name;
    uint32_t ino;
  };
  Result<std::vector<DirEntry>> LoadDirectory();
  Status StoreDirectory(const std::vector<DirEntry>& entries);

  Params params_;
  // Serializes whole file-system operations. Recursive because directory
  // maintenance reuses the public ReadAt/WriteAt/Truncate paths (e.g.
  // Create → StoreDirectory → WriteAt).
  mutable std::recursive_mutex mu_;
  SmgrRegistry smgrs_;  ///< holds only disk_; declared before pool_
  UfsDevice* disk_;
  BufferPool pool_;
  StatsRegistry* registry_ = nullptr;
  Histogram* h_read_ns_ = nullptr;
  Histogram* h_write_ns_ = nullptr;
  bool mounted_ = false;
  uint32_t alloc_hint_ = 0;  ///< rotor for the bitmap scan
};

}  // namespace pglo

#endif  // PGLO_UFS_UFS_H_

#ifndef PGLO_SMGR_SMGR_H_
#define PGLO_SMGR_SMGR_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "obs/stats.h"
#include "storage/page.h"

namespace pglo {

/// The storage manager abstraction of §7.
///
/// "Our abstraction is modelled after the UNIX file system switch, and any
/// user can define a new storage manager by writing and registering a small
/// set of interface routines." A storage manager owns a namespace of
/// relation files (identified by Oid) made of kPageSize blocks. Three
/// implementations ship with pglo — magnetic disk, main memory (NVRAM), and
/// WORM optical jukebox — and users may register more via SmgrRegistry.
///
/// Implementations must be safe for concurrent calls: the buffer pool
/// issues a miss's ReadBlocks outside its own mutex, so reads run
/// concurrently with each other and with writes of other blocks.
///
/// One manager relaxes the end-of-file rules below: UfsDevice, the raw
/// disk of the simulated UNIX file system (src/ufs). A file system
/// allocates blocks anywhere in its partition, so that device lets a write
/// leave a hole and reads zeros past its end. It lives only in the UFS's
/// own switch and is never registered in the database's, where a relation
/// file with a hole would be a bug the OutOfRange/InvalidArgument checks
/// exist to catch.
class StorageManager {
 public:
  virtual ~StorageManager() = default;

  /// Creates an empty relation file.
  virtual Status CreateFile(Oid relfile) = 0;

  /// Removes a relation file and its storage.
  virtual Status DropFile(Oid relfile) = 0;

  virtual bool FileExists(Oid relfile) = 0;

  /// Current length of the file in blocks.
  virtual Result<BlockNumber> NumBlocks(Oid relfile) = 0;

  /// Reads `nblocks` consecutive blocks starting at `start` into `buf`
  /// (`nblocks * kPageSize` bytes). The run must lie entirely within the
  /// file: a run reaching past the end of file is OutOfRange. A zero-length
  /// run is a no-op. On error the buffer contents are unspecified. The run
  /// calls are the block I/O a storage manager implements, charging its
  /// device once per run; a single block is a run of one.
  virtual Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                            uint8_t* buf) = 0;

  /// Writes `nblocks` consecutive blocks starting at `start` from `buf`. A
  /// run starting at or below NumBlocks may extend the file contiguously; a
  /// run starting past the append frontier is InvalidArgument (it would
  /// leave a hole). A zero-length run is a no-op. On error a prefix of the
  /// run may have been written.
  virtual Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                             const uint8_t* buf) = 0;

  /// Reads block `block` into `buf` (kPageSize bytes): a run of one.
  virtual Status ReadBlock(Oid relfile, BlockNumber block, uint8_t* buf) {
    return ReadBlocks(relfile, block, 1, buf);
  }

  /// Writes block `block` from `buf`: a run of one.
  virtual Status WriteBlock(Oid relfile, BlockNumber block,
                            const uint8_t* buf) {
    return WriteBlocks(relfile, block, 1, buf);
  }

  /// Forces previously written blocks of the file to stable storage.
  virtual Status Sync(Oid relfile) = 0;

  /// Bytes of underlying storage consumed by the file (used by Figure 1).
  virtual Result<uint64_t> StorageBytes(Oid relfile) = 0;

  virtual std::string name() const = 0;

  /// True when the manager's blocks are opaque bytes rather than pages: the
  /// buffer pool then neither stamps nor verifies a page checksum on them.
  virtual bool raw_blocks() const { return false; }

  /// Mirrors block I/O accounting into `registry` counters named
  /// `smgr.<name>.{blocks_read,blocks_written,coalesced_runs}`, histograms
  /// `smgr.<name>.{read_ns,write_ns}`, and trace spans
  /// `smgr.<name>.{read,write}` around each run (the span detail payload is
  /// the number of blocks the run moved). Implementations bump the
  /// protected counters and open the spans in their run routines;
  /// overrides may bind additional implementation-specific counters. Null
  /// registry = unbound (no overhead).
  virtual void BindStats(StatsRegistry* registry) {
    if (registry == nullptr) return;
    stat_registry_ = registry;
    stat_blocks_read_ = registry->counter("smgr." + name() + ".blocks_read");
    stat_blocks_written_ =
        registry->counter("smgr." + name() + ".blocks_written");
    stat_coalesced_runs_ =
        registry->counter("smgr." + name() + ".coalesced_runs");
    stat_read_ns_ = registry->histogram("smgr." + name() + ".read_ns");
    stat_write_ns_ = registry->histogram("smgr." + name() + ".write_ns");
    span_read_name_ = "smgr." + name() + ".read";
    span_write_name_ = "smgr." + name() + ".write";
  }

 protected:
  /// Accounting shared by every ReadBlocks/WriteBlocks: one coalesced run
  /// of `nblocks` blocks (only runs of ≥ 2 count).
  void NoteCoalescedRun(uint32_t nblocks) {
    if (nblocks >= 2) StatInc(stat_coalesced_runs_);
  }

  StatsRegistry* stat_registry_ = nullptr;
  Counter* stat_blocks_read_ = nullptr;
  Counter* stat_blocks_written_ = nullptr;
  Counter* stat_coalesced_runs_ = nullptr;
  Histogram* stat_read_ns_ = nullptr;
  Histogram* stat_write_ns_ = nullptr;
  std::string span_read_name_;
  std::string span_write_name_;
};

/// Well-known storage manager slots. The registry accepts arbitrary ids;
/// these three are the ones POSTGRES Version 4 shipped (§7).
enum SmgrId : uint8_t {
  kSmgrDisk = 0,    ///< magnetic disk, a thin veneer on the file system
  kSmgrMemory = 1,  ///< non-volatile main memory
  kSmgrWorm = 2,    ///< optical WORM jukebox with a magnetic-disk cache
};

}  // namespace pglo

#endif  // PGLO_SMGR_SMGR_H_

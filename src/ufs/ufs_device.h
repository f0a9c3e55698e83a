#ifndef PGLO_UFS_UFS_DEVICE_H_
#define PGLO_UFS_UFS_DEVICE_H_

#include <atomic>
#include <string>

#include "device/device_model.h"
#include "fault/fault_injector.h"
#include "smgr/smgr.h"

namespace pglo {

/// The raw disk of the simulated UNIX file system: its host image file as a
/// storage manager, so that the UFS caches blocks in a BufferPool of its
/// own — the "operating system buffer cache" of §9. Only the UFS's own
/// storage-manager switch holds it; it is never registered in the
/// database's, so no large object can be placed on it.
///
/// The device has one file, the image: every call addresses it, whatever
/// `relfile` it names. Unlike a relation file the image may have holes (the
/// file system allocates blocks anywhere in its partition), so a write may
/// start past the written extent and a read past it returns zeros. Its
/// blocks are raw user bytes, not slotted pages (raw_blocks()).
class UfsDevice : public StorageManager {
 public:
  /// `device` may be null (no time charging).
  explicit UfsDevice(DeviceModel* device) : device_(device) {}
  ~UfsDevice() override;
  UfsDevice(const UfsDevice&) = delete;
  UfsDevice& operator=(const UfsDevice&) = delete;

  /// Opens (creating if necessary) the host image file.
  Status Open(const std::string& path);

  /// Installs crash/transient hooks at fault site "ufs". A crash inside a
  /// run applies a block-aligned prefix. No corruption injection: the
  /// image holds raw user bytes with no checksum to catch a flip, so an
  /// injected flip would be indistinguishable from workload data. Null
  /// detaches.
  void SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Open creates the image; there is no other file to create or drop.
  Status CreateFile(Oid) override { return Status::NotSupported("ufs"); }
  Status DropFile(Oid) override { return Status::NotSupported("ufs"); }
  bool FileExists(Oid) override { return fd_ >= 0; }
  /// The written extent of the image.
  Result<BlockNumber> NumBlocks(Oid) override { return extent_.load(); }
  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override;
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override;
  /// One fdatasync of the image.
  Status Sync(Oid relfile) override;
  Result<uint64_t> StorageBytes(Oid) override {
    return uint64_t{extent_.load()} * kPageSize;
  }
  std::string name() const override { return "ufs"; }
  bool raw_blocks() const override { return true; }

  /// Counts blocks moved under `ufs.blocks_{read,written}`; binds no
  /// `smgr.*` names and no spans.
  void BindStats(StatsRegistry* registry) override {
    if (registry == nullptr) return;
    stat_blocks_read_ = registry->counter("ufs.blocks_read");
    stat_blocks_written_ = registry->counter("ufs.blocks_written");
  }

 private:
  /// pwrite of `nblocks` whole blocks at `start`, extending the extent.
  Status WriteRaw(BlockNumber start, uint32_t nblocks, const uint8_t* buf);

  DeviceModel* device_;
  FaultInjector* injector_ = nullptr;
  std::string path_;  ///< the host image, for error messages
  int fd_ = -1;
  std::atomic<BlockNumber> extent_{0};  ///< read-ahead clips here
};

}  // namespace pglo

#endif  // PGLO_UFS_UFS_DEVICE_H_

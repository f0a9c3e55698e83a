#ifndef PGLO_SMGR_DISK_SMGR_H_
#define PGLO_SMGR_DISK_SMGR_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "device/device_model.h"
#include "smgr/smgr.h"

namespace pglo {

/// Magnetic disk storage manager: "a thin veneer on top of the UNIX file
/// system" (§7). Each relation file is a host file `<dir>/<oid>.rel`.
///
/// Every block access is also charged to an optional DeviceModel. For the
/// seek model, relation files are laid out at widely separated simulated
/// disk positions, so intra-file access can be sequential while switching
/// files pays a seek — the same locality structure a real disk gives
/// separately allocated files.
class DiskSmgr : public StorageManager {
 public:
  /// `device` may be null, in which case no simulated time is charged.
  DiskSmgr(std::string dir, DeviceModel* device);
  ~DiskSmgr() override;

  Status CreateFile(Oid relfile) override;
  Status DropFile(Oid relfile) override;
  bool FileExists(Oid relfile) override;
  Result<BlockNumber> NumBlocks(Oid relfile) override;
  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override;
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override;
  Status Sync(Oid relfile) override;
  Result<uint64_t> StorageBytes(Oid relfile) override;
  std::string name() const override { return "disk"; }

 private:
  std::string PathFor(Oid relfile) const;
  Result<int> GetFd(Oid relfile);
  uint64_t PhysicalBlock(Oid relfile, BlockNumber block) const {
    // Files live ~8 GB apart in simulated disk-address space.
    return static_cast<uint64_t>(relfile) * (1ull << 20) + block;
  }

  std::string dir_;
  DeviceModel* device_;
  // Guards fds_ only. Block data moves via pread/pwrite on stable fds, so
  // concurrent transfers need no lock; ordering of writes to one file is
  // the caller's job (the buffer pool serializes its writebacks).
  std::mutex mu_;
  std::unordered_map<Oid, int> fds_;
};

}  // namespace pglo

#endif  // PGLO_SMGR_DISK_SMGR_H_

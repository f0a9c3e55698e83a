#ifndef PGLO_SMGR_MM_SMGR_H_
#define PGLO_SMGR_MM_SMGR_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "device/device_model.h"
#include "smgr/smgr.h"

namespace pglo {

/// Main-memory storage manager: "allows relational data to be stored in
/// non-volatile random-access memory" (§7). Blocks live in process memory;
/// the battery-backed-RAM assumption makes them count as stable storage, so
/// Sync is a no-op. Accesses are charged to a MemoryDeviceModel.
class MainMemorySmgr : public StorageManager {
 public:
  explicit MainMemorySmgr(DeviceModel* device) : device_(device) {}

  Status CreateFile(Oid relfile) override;
  Status DropFile(Oid relfile) override;
  bool FileExists(Oid relfile) override;
  Result<BlockNumber> NumBlocks(Oid relfile) override;
  Status ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override;
  Status WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override;
  Status Sync(Oid relfile) override { (void)relfile; return Status::OK(); }
  Result<uint64_t> StorageBytes(Oid relfile) override;
  std::string name() const override { return "main-memory"; }

 private:
  using Block = std::unique_ptr<uint8_t[]>;
  DeviceModel* device_;
  // Blocks live in process memory, so unlike the fd-based smgrs every
  // access touches shared structures; one lock covers them all.
  std::mutex mu_;
  std::unordered_map<Oid, std::vector<Block>> files_;
};

}  // namespace pglo

#endif  // PGLO_SMGR_MM_SMGR_H_

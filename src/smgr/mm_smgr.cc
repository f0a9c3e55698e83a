#include "smgr/mm_smgr.h"

#include <cstring>

namespace pglo {

Status MainMemorySmgr::CreateFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(relfile)) {
    return Status::AlreadyExists("relation file already exists");
  }
  files_[relfile];  // default-construct an empty block vector
  return Status::OK();
}

Status MainMemorySmgr::DropFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(relfile) == 0) {
    return Status::NotFound("relation file does not exist");
  }
  return Status::OK();
}

bool MainMemorySmgr::FileExists(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(relfile) != 0;
}

Result<BlockNumber> MainMemorySmgr::NumBlocks(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  return static_cast<BlockNumber>(it->second.size());
}

Status MainMemorySmgr::ReadBlocks(Oid relfile, BlockNumber start,
                                  uint32_t nblocks, uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_read_ns_, span_read_name_);
  span.AddDetail(nblocks);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  if (static_cast<size_t>(start) + nblocks > it->second.size()) {
    return Status::OutOfRange("read run extends beyond end of file");
  }
  for (uint32_t i = 0; i < nblocks; ++i) {
    std::memcpy(buf + static_cast<size_t>(i) * kPageSize,
                it->second[start + i].get(), kPageSize);
  }
  // One bus transaction for the whole run: the per-op setup cost is paid
  // once, which is the entire win on this device.
  if (device_ != nullptr) device_->ChargeRead(start, nblocks);
  StatAdd(stat_blocks_read_, nblocks);
  NoteCoalescedRun(nblocks);
  return Status::OK();
}

Status MainMemorySmgr::WriteBlocks(Oid relfile, BlockNumber start,
                                   uint32_t nblocks, const uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_write_ns_, span_write_name_);
  span.AddDetail(nblocks);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  auto& blocks = it->second;
  if (start > blocks.size()) {
    return Status::InvalidArgument("write would leave a hole in the file");
  }
  for (uint32_t i = 0; i < nblocks; ++i) {
    BlockNumber block = start + i;
    if (block == blocks.size()) {
      blocks.emplace_back(std::make_unique<uint8_t[]>(kPageSize));
    }
    std::memcpy(blocks[block].get(),
                buf + static_cast<size_t>(i) * kPageSize, kPageSize);
  }
  if (device_ != nullptr) device_->ChargeWrite(start, nblocks);
  StatAdd(stat_blocks_written_, nblocks);
  NoteCoalescedRun(nblocks);
  return Status::OK();
}

Result<uint64_t> MainMemorySmgr::StorageBytes(Oid relfile) {
  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks(relfile));
  return static_cast<uint64_t>(nblocks) * kPageSize;
}

}  // namespace pglo

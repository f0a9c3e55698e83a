#include "fault/faulty_smgr.h"

#include <cstring>
#include <vector>

namespace pglo {

Status FaultyStorageManager::CreateFile(Oid relfile) {
  auto outcome = injector_->OnWrite(site_.c_str(), 1);
  // File creation is all-or-nothing metadata: on any injected failure the
  // file simply does not come into existence.
  if (!outcome.status.ok()) return outcome.status;
  return inner_->CreateFile(relfile);
}

Status FaultyStorageManager::DropFile(Oid relfile) {
  auto outcome = injector_->OnWrite(site_.c_str(), 1);
  if (!outcome.status.ok()) return outcome.status;
  return inner_->DropFile(relfile);
}

Status FaultyStorageManager::ReadBlocks(Oid relfile, BlockNumber start,
                                        uint32_t nblocks, uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  PGLO_RETURN_IF_ERROR(injector_->OnRead(site_.c_str(), nblocks));
  return inner_->ReadBlocks(relfile, start, nblocks, buf);
}

Status FaultyStorageManager::ApplyWrite(
    Oid relfile, BlockNumber start, uint32_t nblocks, const uint8_t* buf,
    const FaultInjector::WriteOutcome& outcome) {
  uint32_t apply = outcome.status.ok() ? nblocks : outcome.applied;
  if (apply > nblocks) apply = nblocks;
  if (apply > 0) {
    if (outcome.corrupt && outcome.corrupt_block < apply) {
      std::vector<uint8_t> scratch(static_cast<size_t>(apply) * kPageSize);
      std::memcpy(scratch.data(), buf, scratch.size());
      size_t bit = static_cast<size_t>(outcome.corrupt_block) * kPageSize * 8 +
                   outcome.corrupt_bit % (kPageSize * 8);
      scratch[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      PGLO_RETURN_IF_ERROR(
          inner_->WriteBlocks(relfile, start, apply, scratch.data()));
    } else {
      PGLO_RETURN_IF_ERROR(inner_->WriteBlocks(relfile, start, apply, buf));
    }
  }
  return outcome.status;
}

Status FaultyStorageManager::WriteBlocks(Oid relfile, BlockNumber start,
                                         uint32_t nblocks,
                                         const uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  auto outcome = injector_->OnWrite(site_.c_str(), nblocks);
  return ApplyWrite(relfile, start, nblocks, buf, outcome);
}

Status FaultyStorageManager::Sync(Oid relfile) {
  // Disarmed the injector is a pass-through like every other hook; the
  // crash latch stays readable for the harness but must not fail syncs
  // issued after recovery.
  if (injector_->armed() && injector_->crashed()) {
    return FaultInjector::CrashStatus(site_.c_str());
  }
  return inner_->Sync(relfile);
}

}  // namespace pglo

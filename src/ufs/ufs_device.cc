#include "ufs/ufs_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace pglo {

UfsDevice::~UfsDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status UfsDevice::Open(const std::string& path) {
  if (fd_ >= 0) ::close(fd_);
  path_ = path;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot open ufs backing file: " +
                           std::string(std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd_, &st) == 0) {
    extent_ = static_cast<BlockNumber>(
        (static_cast<uint64_t>(st.st_size) + kPageSize - 1) / kPageSize);
  }
  return Status::OK();
}

Status UfsDevice::ReadBlocks(Oid, BlockNumber start, uint32_t nblocks,
                             uint8_t* buf) {
  if (injector_ != nullptr) {
    PGLO_RETURN_IF_ERROR(injector_->OnRead("ufs", nblocks));
  }
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pread(fd_, buf, bytes, static_cast<off_t>(start) * kPageSize);
  if (n < 0) return Status::IOError("ufs backing read failed");
  // Blocks past EOF read as zeros (fresh allocation).
  if (n < static_cast<ssize_t>(bytes)) {
    std::memset(buf + n, 0, bytes - n);
  }
  if (device_ != nullptr) device_->ChargeRead(start, nblocks);
  StatAdd(stat_blocks_read_, nblocks);
  return Status::OK();
}

Status UfsDevice::WriteRaw(BlockNumber start, uint32_t nblocks,
                           const uint8_t* buf) {
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  if (::pwrite(fd_, buf, bytes, static_cast<off_t>(start) * kPageSize) !=
      static_cast<ssize_t>(bytes)) {
    return Status::IOError("ufs backing write failed");
  }
  // The pool serializes write-backs, so the extent has one writer.
  if (start + nblocks > extent_) extent_ = start + nblocks;
  return Status::OK();
}

Status UfsDevice::WriteBlocks(Oid, BlockNumber start, uint32_t nblocks,
                              const uint8_t* buf) {
  if (injector_ != nullptr) {
    FaultInjector::WriteOutcome outcome = injector_->OnWrite("ufs", nblocks);
    if (!outcome.status.ok()) {
      // Crash: a block-aligned prefix of the run may have reached the
      // platter. A transient error applies nothing.
      uint32_t apply = std::min(outcome.applied, nblocks);
      if (apply > 0) PGLO_RETURN_IF_ERROR(WriteRaw(start, apply, buf));
      return outcome.status;
    }
  }
  PGLO_RETURN_IF_ERROR(WriteRaw(start, nblocks, buf));
  if (device_ != nullptr) device_->ChargeWrite(start, nblocks);
  StatAdd(stat_blocks_written_, nblocks);
  return Status::OK();
}

Status UfsDevice::Sync(Oid) {
  if (::fdatasync(fd_) != 0) {
    const int err = errno;
    return Status::IOError("ufs fsync of " + path_ +
                           " failed: " + std::strerror(err));
  }
  return Status::OK();
}

}  // namespace pglo

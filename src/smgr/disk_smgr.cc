#include "smgr/disk_smgr.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pglo {

DiskSmgr::DiskSmgr(std::string dir, DeviceModel* device)
    : dir_(std::move(dir)), device_(device) {
  ::mkdir(dir_.c_str(), 0755);  // best effort; Open errors surface later
}

DiskSmgr::~DiskSmgr() {
  for (auto& [oid, fd] : fds_) {
    ::close(fd);
  }
}

std::string DiskSmgr::PathFor(Oid relfile) const {
  return dir_ + "/" + std::to_string(relfile) + ".rel";
}

Result<int> DiskSmgr::GetFd(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(relfile);
  if (it != fds_.end()) return it->second;
  int fd = ::open(PathFor(relfile).c_str(), O_RDWR, 0644);
  if (fd < 0) {
    return Status::NotFound("relation file " + std::to_string(relfile) +
                            " does not exist");
  }
  fds_[relfile] = fd;
  return fd;
}

Status DiskSmgr::CreateFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  int fd = ::open(PathFor(relfile).c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("relation file already exists");
    }
    return Status::IOError("create failed: " +
                           std::string(std::strerror(errno)));
  }
  fds_[relfile] = fd;
  return Status::OK();
}

Status DiskSmgr::DropFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(relfile);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
  if (::unlink(PathFor(relfile).c_str()) != 0) {
    return Status::NotFound("relation file does not exist");
  }
  return Status::OK();
}

bool DiskSmgr::FileExists(Oid relfile) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fds_.count(relfile)) return true;
  }
  struct stat st;
  return ::stat(PathFor(relfile).c_str(), &st) == 0;
}

Result<BlockNumber> DiskSmgr::NumBlocks(Oid relfile) {
  PGLO_ASSIGN_OR_RETURN(int fd, GetFd(relfile));
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IOError("fstat failed");
  }
  return static_cast<BlockNumber>(st.st_size / kPageSize);
}

Status DiskSmgr::ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                            uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_read_ns_, span_read_name_);
  span.AddDetail(nblocks);
  PGLO_ASSIGN_OR_RETURN(int fd, GetFd(relfile));
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pread(fd, buf, bytes, static_cast<off_t>(start) * kPageSize);
  if (n < 0) {
    return Status::IOError("read of run at block " + std::to_string(start) +
                           " failed: " + std::strerror(errno));
  }
  // A regular file reads short only at its end.
  if (n != static_cast<ssize_t>(bytes)) {
    return Status::OutOfRange("read run extends beyond end of file");
  }
  if (device_ != nullptr) {
    device_->ChargeRead(PhysicalBlock(relfile, start), nblocks);
  }
  StatAdd(stat_blocks_read_, nblocks);
  NoteCoalescedRun(nblocks);
  return Status::OK();
}

Status DiskSmgr::WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                             const uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_write_ns_, span_write_name_);
  span.AddDetail(nblocks);
  PGLO_ASSIGN_OR_RETURN(int fd, GetFd(relfile));
  PGLO_ASSIGN_OR_RETURN(BlockNumber file_blocks, NumBlocks(relfile));
  if (start > file_blocks) {
    return Status::InvalidArgument("write would leave a hole in the file");
  }
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pwrite(fd, buf, bytes, static_cast<off_t>(start) * kPageSize);
  if (n != static_cast<ssize_t>(bytes)) {
    return Status::IOError("short write of run at block " +
                           std::to_string(start));
  }
  if (device_ != nullptr) {
    device_->ChargeWrite(PhysicalBlock(relfile, start), nblocks);
  }
  StatAdd(stat_blocks_written_, nblocks);
  NoteCoalescedRun(nblocks);
  return Status::OK();
}

Status DiskSmgr::Sync(Oid relfile) {
  PGLO_ASSIGN_OR_RETURN(int fd, GetFd(relfile));
  if (::fdatasync(fd) != 0) {
    const int err = errno;
    return Status::IOError("fdatasync of " + PathFor(relfile) +
                           " failed: " + std::strerror(err));
  }
  return Status::OK();
}

Result<uint64_t> DiskSmgr::StorageBytes(Oid relfile) {
  PGLO_ASSIGN_OR_RETURN(BlockNumber nblocks, NumBlocks(relfile));
  return static_cast<uint64_t>(nblocks) * kPageSize;
}

}  // namespace pglo

#include "ufs/block_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace pglo {

UfsBlockCache::UfsBlockCache(DeviceModel* device, size_t capacity_blocks)
    : device_(device), capacity_(capacity_blocks > 0 ? capacity_blocks : 1) {}

UfsBlockCache::~UfsBlockCache() {
  Status s = Flush();
  (void)s;
  if (fd_ >= 0) ::close(fd_);
}

Status UfsBlockCache::Open(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    return Status::IOError("cannot open ufs backing file: " +
                           std::string(std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd_, &st) == 0) {
    backing_blocks_ = static_cast<uint32_t>(
        (static_cast<uint64_t>(st.st_size) + kPageSize - 1) / kPageSize);
  }
  return Status::OK();
}

Status UfsBlockCache::ReadBackingRun(uint32_t block, uint32_t nblocks,
                                     uint8_t* buf) {
  if (injector_ != nullptr) {
    PGLO_RETURN_IF_ERROR(RetryTransient(
        retry_policy_, [&] { return injector_->OnRead("ufs", nblocks); }));
  }
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pread(fd_, buf, bytes, static_cast<off_t>(block) * kPageSize);
  if (n < 0) return Status::IOError("ufs backing read failed");
  // Blocks past EOF read as zeros (fresh allocation).
  if (n < static_cast<ssize_t>(bytes)) {
    std::memset(buf + n, 0, bytes - n);
  }
  if (device_ != nullptr) device_->ChargeRead(block, nblocks);
  StatAdd(c_blocks_read_, nblocks);
  return Status::OK();
}

Status UfsBlockCache::WriteBackingRun(uint32_t block, uint32_t nblocks,
                                      const uint8_t* buf) {
  uint32_t apply = nblocks;
  if (injector_ != nullptr) {
    FaultInjector::WriteOutcome outcome;
    Status s = RetryTransient(retry_policy_, [&] {
      outcome = injector_->OnWrite("ufs", nblocks);
      return outcome.status;
    });
    if (!s.ok()) {
      // Crash (or exhausted transient): a block-aligned prefix of the
      // write-back may have reached the platter.
      apply = outcome.applied < nblocks ? outcome.applied : nblocks;
      if (apply > 0) {
        size_t bytes = static_cast<size_t>(apply) * kPageSize;
        if (::pwrite(fd_, buf, bytes,
                     static_cast<off_t>(block) * kPageSize) !=
            static_cast<ssize_t>(bytes)) {
          return Status::IOError("ufs backing torn write failed");
        }
        if (block + apply > backing_blocks_) backing_blocks_ = block + apply;
      }
      return s;
    }
  }
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pwrite(fd_, buf, bytes, static_cast<off_t>(block) * kPageSize);
  if (n != static_cast<ssize_t>(bytes)) {
    return Status::IOError("ufs backing write failed");
  }
  if (device_ != nullptr) device_->ChargeWrite(block, nblocks);
  StatAdd(c_blocks_written_, nblocks);
  if (block + nblocks > backing_blocks_) backing_blocks_ = block + nblocks;
  return Status::OK();
}

Status UfsBlockCache::WriteBackSorted(const std::vector<uint32_t>& sorted) {
  // Window 0 caps runs at one block, the historical one command per block.
  const size_t max_run = readahead_pages_ == 0 ? 1 : 64;
  size_t i = 0;
  while (i < sorted.size()) {
    size_t j = i + 1;
    while (j < sorted.size() && j - i < max_run &&
           sorted[j] == sorted[j - 1] + 1) {
      ++j;
    }
    uint32_t run = static_cast<uint32_t>(j - i);
    // A run of one leaves straight from its entry; a longer run is
    // gathered first.
    const uint8_t* src = cache_[sorted[i]].data.data();
    if (run > 1) {
      write_scratch_.resize(static_cast<size_t>(run) * kPageSize);
      for (uint32_t k = 0; k < run; ++k) {
        std::memcpy(
            write_scratch_.data() + static_cast<size_t>(k) * kPageSize,
            cache_[sorted[i + k]].data.data(), kPageSize);
      }
      src = write_scratch_.data();
    }
    PGLO_RETURN_IF_ERROR(WriteBackingRun(sorted[i], run, src));
    for (uint32_t k = 0; k < run; ++k) {
      cache_[sorted[i + k]].dirty = false;
    }
    i = j;
  }
  return Status::OK();
}

void UfsBlockCache::Touch(uint32_t block, Entry& e) {
  lru_.erase(e.lru_pos);
  lru_.push_back(block);
  e.lru_pos = std::prev(lru_.end());
}

Status UfsBlockCache::EvictIfFull() {
  while (cache_.size() >= capacity_) {
    uint32_t victim = lru_.front();
    lru_.pop_front();
    auto it = cache_.find(victim);
    if (it->second.dirty) {
      // Clean a sorted batch of cold dirty blocks along with the victim —
      // the OS buffer cache's clustered write-behind, without which a
      // mixed read/write workload would pay a head seek per eviction.
      constexpr size_t kBatch = 64;
      std::vector<uint32_t> batch;
      batch.push_back(victim);
      for (auto lru_it = lru_.begin();
           lru_it != lru_.end() && batch.size() < kBatch; ++lru_it) {
        if (cache_[*lru_it].dirty) batch.push_back(*lru_it);
      }
      std::sort(batch.begin(), batch.end());
      PGLO_RETURN_IF_ERROR(WriteBackSorted(batch));
    }
    cache_.erase(victim);
  }
  return Status::OK();
}

Status UfsBlockCache::Read(uint32_t block, uint8_t* buf) {
  if (cpu_ != nullptr && access_instructions_ > 0) {
    cpu_->ChargeInstructions(access_instructions_);
  }
  auto it = cache_.find(block);
  if (it != cache_.end()) {
    ++hits_;
    StatInc(c_hits_);
    Touch(block, it->second);
    std::memcpy(buf, it->second.data.data(), kPageSize);
    return Status::OK();
  }
  ++misses_;
  StatInc(c_misses_);
  // Sequential read-ahead, clipped at the written extent and at the first
  // cached block.
  uint32_t run = 1;
  if (readahead_pages_ > 1) {
    uint32_t window = readahead_.OnMiss(block, readahead_pages_);
    if (window > 1 && block < backing_blocks_) {
      run = static_cast<uint32_t>(
          std::min<uint64_t>(window, backing_blocks_ - block));
      for (uint32_t k = 1; k < run; ++k) {
        if (cache_.count(block + k) != 0) {
          run = k;
          break;
        }
      }
    }
    readahead_.Read(block, run);
  }
  // A run of one reads straight into the caller's buffer; a longer run
  // lands in the staging buffer.
  uint8_t* dst = buf;
  if (run > 1) {
    scratch_.resize(static_cast<size_t>(run) * kPageSize);
    dst = scratch_.data();
  }
  PGLO_RETURN_IF_ERROR(ReadBackingRun(block, run, dst));
  if (run > 1) std::memcpy(buf, dst, kPageSize);
  for (uint32_t k = 0; k < run; ++k) {
    PGLO_RETURN_IF_ERROR(EvictIfFull());
    Entry e;
    const uint8_t* src = dst + static_cast<size_t>(k) * kPageSize;
    e.data.assign(src, src + kPageSize);
    lru_.push_back(block + k);
    e.lru_pos = std::prev(lru_.end());
    cache_.emplace(block + k, std::move(e));
  }
  return Status::OK();
}

Status UfsBlockCache::Write(uint32_t block, const uint8_t* buf) {
  if (cpu_ != nullptr && access_instructions_ > 0) {
    cpu_->ChargeInstructions(access_instructions_);
  }
  auto it = cache_.find(block);
  if (it != cache_.end()) {
    Touch(block, it->second);
    std::memcpy(it->second.data.data(), buf, kPageSize);
    it->second.dirty = true;
    return Status::OK();
  }
  PGLO_RETURN_IF_ERROR(EvictIfFull());
  Entry e;
  e.data.assign(buf, buf + kPageSize);
  e.dirty = true;
  lru_.push_back(block);
  e.lru_pos = std::prev(lru_.end());
  cache_.emplace(block, std::move(e));
  return Status::OK();
}

Status UfsBlockCache::Flush() {
  if (fd_ < 0) return Status::OK();
  std::vector<uint32_t> dirty;
  for (auto& [block, e] : cache_) {
    if (e.dirty) dirty.push_back(block);
  }
  std::sort(dirty.begin(), dirty.end());  // clustered writeback
  PGLO_RETURN_IF_ERROR(WriteBackSorted(dirty));
  if (::fdatasync(fd_) != 0) return Status::IOError("ufs fsync failed");
  return Status::OK();
}

void UfsBlockCache::CrashDiscard() {
  cache_.clear();
  lru_.clear();
  readahead_ = ReadAhead();
}

}  // namespace pglo

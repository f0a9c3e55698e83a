#include "smgr/worm_smgr.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "fault/fault_injector.h"

namespace pglo {

namespace {
// Map record: relfile u32 | logical u32 | optical u32 | crc u32.
constexpr size_t kMapRecordSize = 16;
constexpr uint32_t kMarkerLogical = 0xffffffffu;
constexpr uint32_t kMarkerCreate = 0;
constexpr uint32_t kMarkerDrop = 0xffffffffu;
}  // namespace

WormSmgr::WormSmgr(std::string dir, DeviceModel* optical_device,
                   DeviceModel* cache_device, size_t cache_blocks)
    : dir_(std::move(dir)),
      optical_device_(optical_device),
      cache_device_(cache_device),
      cache_capacity_(cache_blocks) {}

WormSmgr::~WormSmgr() {
  if (optical_fd_ >= 0) ::close(optical_fd_);
  if (map_fd_ >= 0) ::close(map_fd_);
}

Status WormSmgr::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  std::string optical_path = dir_ + "/worm.optical";
  std::string map_path = dir_ + "/worm.map";
  optical_fd_ = ::open(optical_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (optical_fd_ < 0) {
    return Status::IOError("cannot open optical store: " +
                           std::string(std::strerror(errno)));
  }
  map_fd_ = ::open(map_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (map_fd_ < 0) {
    return Status::IOError("cannot open worm map: " +
                           std::string(std::strerror(errno)));
  }
  off_t optical_size = ::lseek(optical_fd_, 0, SEEK_END);
  next_optical_ = static_cast<uint32_t>(optical_size / kPageSize);

  files_.clear();
  mapped_burn_records_ = 0;
  uint8_t rec[kMapRecordSize];
  off_t pos = 0;
  for (;;) {
    ssize_t n = ::pread(map_fd_, rec, kMapRecordSize, pos);
    if (n == 0) break;
    if (n != static_cast<ssize_t>(kMapRecordSize)) {
      if (::ftruncate(map_fd_, pos) != 0) {
        return Status::IOError("worm map truncate failed");
      }
      if (events_ != nullptr) {
        events_->Append(EventType::kRecoveryRepair,
                        "worm.map: truncated short tail record",
                        static_cast<uint64_t>(pos));
      }
      break;
    }
    uint32_t stored_crc = DecodeFixed32(rec + 12);
    if (crc32c::Unmask(stored_crc) != crc32c::Value(rec, 12)) {
      if (::ftruncate(map_fd_, pos) != 0) {
        return Status::IOError("worm map truncate failed");
      }
      if (events_ != nullptr) {
        events_->Append(EventType::kRecoveryRepair,
                        "worm.map: truncated record with bad crc",
                        static_cast<uint64_t>(pos));
      }
      break;
    }
    Oid relfile = DecodeFixed32(rec);
    uint32_t logical = DecodeFixed32(rec + 4);
    uint32_t optical = DecodeFixed32(rec + 8);
    if (logical == kMarkerLogical) {
      if (optical == kMarkerCreate) {
        files_[relfile];  // (re)create empty
      } else if (optical == kMarkerDrop) {
        files_.erase(relfile);
      }
    } else {
      FileState& fs = files_[relfile];
      if (logical >= fs.map.size()) {
        fs.map.resize(logical + 1, kNoOptical);
      }
      fs.map[logical] = optical;
      ++fs.blocks_burned;  // every map record is one burned optical block
      ++mapped_burn_records_;
    }
    pos += kMapRecordSize;
  }
  return Status::OK();
}

Status WormSmgr::AppendMapRecord(Oid relfile, BlockNumber logical,
                                 uint32_t optical) {
  uint8_t rec[kMapRecordSize];
  EncodeFixed32(rec, relfile);
  EncodeFixed32(rec + 4, logical);
  EncodeFixed32(rec + 8, optical);
  EncodeFixed32(rec + 12, crc32c::Mask(crc32c::Value(rec, 12)));
  off_t end = ::lseek(map_fd_, 0, SEEK_END);
  if (end < 0) return Status::IOError("worm map append failed");
  if (injector_ != nullptr) {
    auto outcome = injector_->OnAppend("worm.map", kMapRecordSize);
    if (!outcome.status.ok()) {
      // Byte-torn map tail; Open's CRC replay truncates it away, leaving
      // the already-burned optical block orphaned.
      if (outcome.applied > 0 &&
          ::pwrite(map_fd_, rec, outcome.applied, end) !=
              static_cast<ssize_t>(outcome.applied)) {
        return Status::IOError("worm map torn append failed");
      }
      return outcome.status;
    }
  }
  if (::pwrite(map_fd_, rec, kMapRecordSize, end) !=
      static_cast<ssize_t>(kMapRecordSize)) {
    return Status::IOError("worm map append failed");
  }
  if (logical != kMarkerLogical) ++mapped_burn_records_;
  return Status::OK();
}

Status WormSmgr::ReadOpticalRun(uint32_t optical, uint32_t nblocks,
                                uint8_t* buf) {
  size_t bytes = static_cast<size_t>(nblocks) * kPageSize;
  ssize_t n = ::pread(optical_fd_, buf, bytes,
                      static_cast<off_t>(optical) * kPageSize);
  if (n != static_cast<ssize_t>(bytes)) {
    return Status::IOError("optical read failed");
  }
  StatAdd(c_optical_reads_, nblocks);
  if (optical_device_ != nullptr) {
    optical_device_->ChargeRead(optical, nblocks);
  }
  return Status::OK();
}

Status WormSmgr::BurnOpticalRun(uint32_t optical, uint32_t nblocks,
                                const uint8_t* buf) {
  const uint8_t* src = buf;
  uint32_t apply = nblocks;
  std::vector<uint8_t> scratch;
  Status injected;
  if (injector_ != nullptr) {
    auto outcome = injector_->OnWrite("worm.burn", nblocks);
    injected = outcome.status;
    if (!injected.ok()) {
      // Crash mid-burn: a block-aligned prefix made it onto the platter
      // (or nothing, for a transient error) — either way the run's map
      // records are never appended, so the burned prefix is orphaned.
      apply = outcome.applied < nblocks ? outcome.applied : nblocks;
    } else if (outcome.corrupt && outcome.corrupt_block < nblocks) {
      scratch.assign(buf, buf + static_cast<size_t>(nblocks) * kPageSize);
      size_t bit =
          static_cast<size_t>(outcome.corrupt_block) * kPageSize * 8 +
          outcome.corrupt_bit % (kPageSize * 8);
      scratch[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      src = scratch.data();
    }
  }
  if (apply > 0) {
    size_t bytes = static_cast<size_t>(apply) * kPageSize;
    ssize_t n = ::pwrite(optical_fd_, src, bytes,
                         static_cast<off_t>(optical) * kPageSize);
    if (n != static_cast<ssize_t>(bytes)) {
      return Status::IOError("optical write failed");
    }
  }
  if (!injected.ok()) return injected;
  StatAdd(c_optical_writes_, nblocks);
  if (optical_device_ != nullptr) {
    optical_device_->ChargeWrite(optical, nblocks);
  }
  return Status::OK();
}

void WormSmgr::CacheInsert(Oid relfile, BlockNumber block,
                           const uint8_t* buf) {
  if (cache_capacity_ == 0) return;
  CacheKey key{relfile, block};
  uint64_t slot;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    std::memcpy(it->second.data.data(), buf, kPageSize);
    cache_lru_.erase(it->second.lru_pos);
    cache_lru_.push_back(key);
    it->second.lru_pos = std::prev(cache_lru_.end());
    slot = it->second.disk_slot;
  } else {
    while (cache_.size() >= cache_capacity_) {
      cache_.erase(cache_lru_.front());
      cache_lru_.pop_front();
    }
    CacheEntry entry;
    entry.data.assign(buf, buf + kPageSize);
    cache_lru_.push_back(key);
    entry.lru_pos = std::prev(cache_lru_.end());
    // The staging area is written like a circular log: consecutive fills
    // land on consecutive magnetic blocks, so streaming fills stay cheap.
    slot = cache_fill_rotor_;
    cache_fill_rotor_ = (cache_fill_rotor_ + 1) % (cache_capacity_ + 1);
    entry.disk_slot = slot;
    cache_.emplace(key, std::move(entry));
  }
  // Fills are write-behind: the staging disk streams them asynchronously,
  // overlapped with the (far slower) optical transfer, so they do not
  // lengthen the caller's elapsed time. Only synchronous cache *reads*
  // charge the magnetic disk (see CacheLookup). The `slot` bookkeeping
  // still records where the block lives for those reads.
  (void)slot;
}

bool WormSmgr::CacheLookup(Oid relfile, BlockNumber block, uint8_t* buf) {
  CacheKey key{relfile, block};
  auto it = cache_.find(key);
  if (it == cache_.end()) return false;
  std::memcpy(buf, it->second.data.data(), kPageSize);
  cache_lru_.erase(it->second.lru_pos);
  cache_lru_.push_back(key);
  it->second.lru_pos = std::prev(cache_lru_.end());
  if (cache_device_ != nullptr) {
    cache_device_->ChargeRead(it->second.disk_slot, 1);
  }
  return true;
}

void WormSmgr::CacheErase(Oid relfile, BlockNumber block) {
  CacheKey key{relfile, block};
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  cache_lru_.erase(it->second.lru_pos);
  cache_.erase(it);
}

void WormSmgr::DropCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  cache_lru_.clear();
}

Status WormSmgr::CreateFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(relfile)) {
    return Status::AlreadyExists("relation file already exists");
  }
  PGLO_RETURN_IF_ERROR(AppendMapRecord(relfile, kMarkerLogical,
                                       kMarkerCreate));
  files_[relfile];
  return Status::OK();
}

Status WormSmgr::DropFile(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  // Platter space cannot be reclaimed; only the map entry is retired.
  PGLO_RETURN_IF_ERROR(AppendMapRecord(relfile, kMarkerLogical, kMarkerDrop));
  for (BlockNumber b = 0; b < it->second.map.size(); ++b) {
    CacheErase(relfile, b);
  }
  files_.erase(it);
  return Status::OK();
}

bool WormSmgr::FileExists(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(relfile) != 0;
}

Result<BlockNumber> WormSmgr::NumBlocks(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  return static_cast<BlockNumber>(it->second.map.size());
}

Status WormSmgr::ReadBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                            uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_read_ns_, span_read_name_);
  span.AddDetail(nblocks);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  const FileState& fs = it->second;
  if (static_cast<size_t>(start) + nblocks > fs.map.size()) {
    return Status::OutOfRange("read run extends beyond end of file");
  }
  for (uint32_t i = 0; i < nblocks; ++i) {
    if (fs.map[start + i] == kNoOptical) {
      return Status::OutOfRange("block beyond end of file");
    }
  }
  StatAdd(stat_blocks_read_, nblocks);
  NoteCoalescedRun(nblocks);
  uint32_t i = 0;
  while (i < nblocks) {
    BlockNumber block = start + i;
    uint8_t* dst = buf + static_cast<size_t>(i) * kPageSize;
    if (CacheLookup(relfile, block, dst)) {
      StatInc(c_cache_hits_);
      ++i;
      continue;
    }
    // Miss: extend over following misses while their optical blocks stay
    // consecutive, then pay the jukebox once for the whole sub-run.
    uint32_t optical = fs.map[block];
    uint32_t run = 1;
    while (i + run < nblocks &&
           fs.map[start + i + run] == optical + run &&
           cache_.find(CacheKey{relfile, start + i + run}) == cache_.end()) {
      ++run;
    }
    StatAdd(c_cache_misses_, run);
    PGLO_RETURN_IF_ERROR(ReadOpticalRun(optical, run, dst));
    for (uint32_t k = 0; k < run; ++k) {
      CacheInsert(relfile, block + k, dst + static_cast<size_t>(k) *
                                                kPageSize);
    }
    i += run;
  }
  return Status::OK();
}

Status WormSmgr::WriteBlocks(Oid relfile, BlockNumber start, uint32_t nblocks,
                             const uint8_t* buf) {
  if (nblocks == 0) return Status::OK();
  TraceSpan span(stat_registry_, stat_write_ns_, span_write_name_);
  span.AddDetail(nblocks);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  FileState& fs = it->second;
  if (start > fs.map.size()) {
    return Status::InvalidArgument("write would leave a hole in the file");
  }
  uint32_t first_optical = next_optical_;
  next_optical_ += nblocks;
  PGLO_RETURN_IF_ERROR(BurnOpticalRun(first_optical, nblocks, buf));
  for (uint32_t i = 0; i < nblocks; ++i) {
    BlockNumber block = start + i;
    uint32_t optical = first_optical + i;
    PGLO_RETURN_IF_ERROR(AppendMapRecord(relfile, block, optical));
    if (block == fs.map.size()) {
      fs.map.push_back(optical);
    } else {
      StatInc(c_relocations_);  // write-once: old block is dead platter
      fs.map[block] = optical;
    }
    ++fs.blocks_burned;
    CacheInsert(relfile, block,
                buf + static_cast<size_t>(i) * kPageSize);
  }
  StatAdd(stat_blocks_written_, nblocks);
  NoteCoalescedRun(nblocks);
  return Status::OK();
}

Status WormSmgr::Sync(Oid relfile) {
  (void)relfile;
  std::lock_guard<std::mutex> lock(mu_);
  const char* failed = ::fdatasync(optical_fd_) != 0 ? "/worm.optical"
                       : ::fdatasync(map_fd_) != 0   ? "/worm.map"
                                                     : nullptr;
  if (failed != nullptr) {
    const int err = errno;
    return Status::IOError("worm sync of " + dir_ + failed +
                           " failed: " + std::strerror(err));
  }
  return Status::OK();
}

Result<uint64_t> WormSmgr::StorageBytes(Oid relfile) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(relfile);
  if (it == files_.end()) {
    return Status::NotFound("relation file does not exist");
  }
  return it->second.blocks_burned * static_cast<uint64_t>(kPageSize);
}

}  // namespace pglo

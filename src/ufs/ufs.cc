#include "ufs/ufs.h"

#include <cstring>

#include "common/logging.h"

namespace pglo {

UnixFileSystem::UnixFileSystem(DeviceModel* device, Params params)
    : params_(params), pool_(&smgrs_, params.cache_blocks) {
  auto disk = std::make_unique<UfsDevice>(device);
  disk_ = disk.get();
  PGLO_CHECK(smgrs_.Register(kImage.smgr_id, std::move(disk)).ok());
}

Status UnixFileSystem::ReadBlock(uint32_t block, uint8_t* buf) {
  PGLO_ASSIGN_OR_RETURN(PageHandle page, pool_.GetPage({kImage, block}));
  std::memcpy(buf, page.data(), kPageSize);
  return Status::OK();
}

Status UnixFileSystem::WriteBlock(uint32_t block, const uint8_t* buf) {
  PGLO_ASSIGN_OR_RETURN(PageHandle page, pool_.OverwritePage({kImage, block}));
  std::memcpy(page.data(), buf, kPageSize);
  return Status::OK();
}

Status UnixFileSystem::WriteSuperblock() {
  uint8_t block[kPageSize] = {};
  EncodeFixed32(block, kMagic);
  EncodeFixed32(block + 4, params_.capacity_blocks);
  EncodeFixed32(block + 8, params_.num_inodes);
  return WriteBlock(0, block);
}

Status UnixFileSystem::ReadSuperblock() {
  uint8_t block[kPageSize];
  PGLO_RETURN_IF_ERROR(ReadBlock(0, block));
  if (DecodeFixed32(block) != kMagic) {
    return Status::Corruption("not a ufs file system");
  }
  params_.capacity_blocks = DecodeFixed32(block + 4);
  params_.num_inodes = DecodeFixed32(block + 8);
  return Status::OK();
}

Status UnixFileSystem::Format(const std::string& backing_path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_RETURN_IF_ERROR(disk_->Open(backing_path));
  PGLO_RETURN_IF_ERROR(WriteSuperblock());
  uint8_t zero[kPageSize] = {};
  for (uint32_t b = BitmapStart(); b < DataStart(); ++b) {
    PGLO_RETURN_IF_ERROR(WriteBlock(b, zero));
  }
  // Mark metadata blocks as allocated in the bitmap.
  mounted_ = true;
  for (uint32_t b = 0; b < DataStart(); ++b) {
    uint32_t bitmap_block = BitmapStart() + b / (kPageSize * 8);
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(bitmap_block, buf));
    uint32_t bit = b % (kPageSize * 8);
    buf[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    PGLO_RETURN_IF_ERROR(WriteBlock(bitmap_block, buf));
  }
  // Root directory inode.
  UfsInode root;
  root.set_in_use(true);
  PGLO_RETURN_IF_ERROR(StoreInode(kRootInode, root));
  alloc_hint_ = DataStart();
  // mkfs writes through: the fresh file system must survive a crash that
  // happens before the first explicit Sync.
  return pool_.FlushAll();
}

Status UnixFileSystem::Mount(const std::string& backing_path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_RETURN_IF_ERROR(disk_->Open(backing_path));
  PGLO_RETURN_IF_ERROR(ReadSuperblock());
  mounted_ = true;
  alloc_hint_ = DataStart();
  return Status::OK();
}

Result<UfsInode> UnixFileSystem::LoadInode(uint32_t ino) {
  if (ino >= params_.num_inodes) {
    return Status::InvalidArgument("inode number out of range");
  }
  uint32_t block = InodeTableStart() + ino * UfsInode::kSize / kPageSize;
  uint32_t offset = ino * UfsInode::kSize % kPageSize;
  uint8_t buf[kPageSize];
  PGLO_RETURN_IF_ERROR(ReadBlock(block, buf));
  return UfsInode::Decode(buf + offset);
}

Status UnixFileSystem::StoreInode(uint32_t ino, const UfsInode& inode) {
  if (ino >= params_.num_inodes) {
    return Status::InvalidArgument("inode number out of range");
  }
  uint32_t block = InodeTableStart() + ino * UfsInode::kSize / kPageSize;
  uint32_t offset = ino * UfsInode::kSize % kPageSize;
  uint8_t buf[kPageSize];
  PGLO_RETURN_IF_ERROR(ReadBlock(block, buf));
  inode.EncodeTo(buf + offset);
  return WriteBlock(block, buf);
}

Result<uint32_t> UnixFileSystem::AllocInode() {
  for (uint32_t ino = 1; ino < params_.num_inodes; ++ino) {
    PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
    if (!inode.in_use()) return ino;
  }
  return Status::ResourceExhausted("out of inodes");
}

Result<uint32_t> UnixFileSystem::AllocBlock() {
  uint32_t bits_per_block = kPageSize * 8;
  uint32_t start = alloc_hint_ < DataStart() ? DataStart() : alloc_hint_;
  for (uint32_t attempt = 0; attempt < params_.capacity_blocks; ++attempt) {
    uint32_t b = start + attempt;
    if (b >= params_.capacity_blocks) {
      b = DataStart() + (b - params_.capacity_blocks);
      if (b >= start) break;  // wrapped fully
    }
    uint32_t bitmap_block = BitmapStart() + b / bits_per_block;
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(bitmap_block, buf));
    uint32_t bit = b % bits_per_block;
    if (!(buf[bit / 8] & (1u << (bit % 8)))) {
      buf[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
      PGLO_RETURN_IF_ERROR(WriteBlock(bitmap_block, buf));
      alloc_hint_ = b + 1;
      return b;
    }
  }
  return Status::ResourceExhausted("file system full");
}

Status UnixFileSystem::FreeBlock(uint32_t block) {
  uint32_t bits_per_block = kPageSize * 8;
  uint32_t bitmap_block = BitmapStart() + block / bits_per_block;
  uint8_t buf[kPageSize];
  PGLO_RETURN_IF_ERROR(ReadBlock(bitmap_block, buf));
  uint32_t bit = block % bits_per_block;
  buf[bit / 8] &= static_cast<uint8_t>(~(1u << (bit % 8)));
  PGLO_RETURN_IF_ERROR(WriteBlock(bitmap_block, buf));
  if (block < alloc_hint_) alloc_hint_ = block;
  return Status::OK();
}

Result<uint32_t> UnixFileSystem::MapBlock(UfsInode* inode, bool* inode_dirty,
                                          uint64_t logical, bool alloc) {
  if (logical < UfsInode::kNumDirect) {
    uint32_t phys = inode->direct[logical];
    if (phys == UfsInode::kNoBlock && alloc) {
      PGLO_ASSIGN_OR_RETURN(phys, AllocBlock());
      inode->direct[logical] = phys;
      *inode_dirty = true;
    }
    return phys;
  }
  logical -= UfsInode::kNumDirect;

  auto load_ptr = [&](uint32_t indirect_block,
                      uint32_t index) -> Result<uint32_t> {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(indirect_block, buf));
    return DecodeFixed32(buf + 4 * index);
  };
  auto store_ptr = [&](uint32_t indirect_block, uint32_t index,
                       uint32_t value) -> Status {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(indirect_block, buf));
    EncodeFixed32(buf + 4 * index, value);
    return WriteBlock(indirect_block, buf);
  };
  auto alloc_zeroed = [&]() -> Result<uint32_t> {
    PGLO_ASSIGN_OR_RETURN(uint32_t b, AllocBlock());
    uint8_t zero[kPageSize] = {};
    PGLO_RETURN_IF_ERROR(WriteBlock(b, zero));
    return b;
  };

  if (logical < kPtrsPerBlock) {
    if (inode->single_indirect == UfsInode::kNoBlock) {
      if (!alloc) return UfsInode::kNoBlock;
      PGLO_ASSIGN_OR_RETURN(inode->single_indirect, alloc_zeroed());
      *inode_dirty = true;
    }
    PGLO_ASSIGN_OR_RETURN(
        uint32_t phys,
        load_ptr(inode->single_indirect, static_cast<uint32_t>(logical)));
    if (phys == UfsInode::kNoBlock && alloc) {
      PGLO_ASSIGN_OR_RETURN(phys, AllocBlock());
      PGLO_RETURN_IF_ERROR(store_ptr(inode->single_indirect,
                                     static_cast<uint32_t>(logical), phys));
    }
    return phys;
  }
  logical -= kPtrsPerBlock;

  if (logical < static_cast<uint64_t>(kPtrsPerBlock) * kPtrsPerBlock) {
    if (inode->double_indirect == UfsInode::kNoBlock) {
      if (!alloc) return UfsInode::kNoBlock;
      PGLO_ASSIGN_OR_RETURN(inode->double_indirect, alloc_zeroed());
      *inode_dirty = true;
    }
    uint32_t outer = static_cast<uint32_t>(logical / kPtrsPerBlock);
    uint32_t inner = static_cast<uint32_t>(logical % kPtrsPerBlock);
    PGLO_ASSIGN_OR_RETURN(uint32_t level1,
                          load_ptr(inode->double_indirect, outer));
    if (level1 == UfsInode::kNoBlock) {
      if (!alloc) return UfsInode::kNoBlock;
      PGLO_ASSIGN_OR_RETURN(level1, alloc_zeroed());
      PGLO_RETURN_IF_ERROR(store_ptr(inode->double_indirect, outer, level1));
    }
    PGLO_ASSIGN_OR_RETURN(uint32_t phys, load_ptr(level1, inner));
    if (phys == UfsInode::kNoBlock && alloc) {
      PGLO_ASSIGN_OR_RETURN(phys, AllocBlock());
      PGLO_RETURN_IF_ERROR(store_ptr(level1, inner, phys));
    }
    return phys;
  }
  return Status::OutOfRange("file exceeds maximum ufs size");
}

Result<size_t> UnixFileSystem::ReadAt(uint32_t ino, uint64_t off, size_t n,
                                      uint8_t* buf) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  TraceSpan span(registry_, h_read_ns_, "ufs.read");
  PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
  if (!inode.in_use()) return Status::NotFound("inode not in use");
  if (off >= inode.size) return static_cast<size_t>(0);
  n = static_cast<size_t>(std::min<uint64_t>(n, inode.size - off));
  size_t done = 0;
  bool inode_dirty = false;
  while (done < n) {
    uint64_t logical = (off + done) / kPageSize;
    uint32_t in_block = static_cast<uint32_t>((off + done) % kPageSize);
    size_t take = std::min<size_t>(n - done, kPageSize - in_block);
    PGLO_ASSIGN_OR_RETURN(uint32_t phys,
                          MapBlock(&inode, &inode_dirty, logical, false));
    if (phys == UfsInode::kNoBlock) {
      std::memset(buf + done, 0, take);  // hole
    } else {
      uint8_t block[kPageSize];
      PGLO_RETURN_IF_ERROR(ReadBlock(phys, block));
      std::memcpy(buf + done, block + in_block, take);
    }
    done += take;
  }
  return done;
}

Status UnixFileSystem::WriteAt(uint32_t ino, uint64_t off, Slice data) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  TraceSpan span(registry_, h_write_ns_, "ufs.write");
  PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
  if (!inode.in_use()) return Status::NotFound("inode not in use");
  size_t done = 0;
  bool inode_dirty = false;
  while (done < data.size()) {
    uint64_t logical = (off + done) / kPageSize;
    uint32_t in_block = static_cast<uint32_t>((off + done) % kPageSize);
    size_t take = std::min<size_t>(data.size() - done, kPageSize - in_block);
    // A partial write into a block that already exists must
    // read-modify-write; a freshly allocated block starts as zeros (its
    // recycled on-disk contents belong to a dead file and must not leak).
    PGLO_ASSIGN_OR_RETURN(uint32_t existing,
                          MapBlock(&inode, &inode_dirty, logical, false));
    PGLO_ASSIGN_OR_RETURN(uint32_t phys,
                          MapBlock(&inode, &inode_dirty, logical, true));
    uint8_t block[kPageSize];
    if (take == kPageSize) {
      // Full-block write: no read-modify-write needed.
      std::memcpy(block, data.data() + done, kPageSize);
    } else if (existing == UfsInode::kNoBlock) {
      std::memset(block, 0, kPageSize);
      std::memcpy(block + in_block, data.data() + done, take);
    } else {
      PGLO_RETURN_IF_ERROR(ReadBlock(phys, block));
      std::memcpy(block + in_block, data.data() + done, take);
    }
    PGLO_RETURN_IF_ERROR(WriteBlock(phys, block));
    done += take;
  }
  if (off + data.size() > inode.size) {
    inode.size = off + data.size();
    inode_dirty = true;
  }
  if (inode_dirty) {
    PGLO_RETURN_IF_ERROR(StoreInode(ino, inode));
  }
  return Status::OK();
}

Status UnixFileSystem::ClearMapping(UfsInode* inode, uint64_t logical) {
  auto clear_ptr = [&](uint32_t indirect_block, uint32_t index) -> Status {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(indirect_block, buf));
    uint32_t phys = DecodeFixed32(buf + 4 * index);
    if (phys != UfsInode::kNoBlock) {
      PGLO_RETURN_IF_ERROR(FreeBlock(phys));
      EncodeFixed32(buf + 4 * index, UfsInode::kNoBlock);
      PGLO_RETURN_IF_ERROR(WriteBlock(indirect_block, buf));
    }
    return Status::OK();
  };
  if (logical < UfsInode::kNumDirect) {
    if (inode->direct[logical] != UfsInode::kNoBlock) {
      PGLO_RETURN_IF_ERROR(FreeBlock(inode->direct[logical]));
      inode->direct[logical] = UfsInode::kNoBlock;
    }
    return Status::OK();
  }
  logical -= UfsInode::kNumDirect;
  if (logical < kPtrsPerBlock) {
    if (inode->single_indirect == UfsInode::kNoBlock) return Status::OK();
    return clear_ptr(inode->single_indirect,
                     static_cast<uint32_t>(logical));
  }
  logical -= kPtrsPerBlock;
  if (inode->double_indirect == UfsInode::kNoBlock) return Status::OK();
  uint32_t outer = static_cast<uint32_t>(logical / kPtrsPerBlock);
  uint32_t inner = static_cast<uint32_t>(logical % kPtrsPerBlock);
  uint8_t buf[kPageSize];
  PGLO_RETURN_IF_ERROR(ReadBlock(inode->double_indirect, buf));
  uint32_t level1 = DecodeFixed32(buf + 4 * outer);
  if (level1 == UfsInode::kNoBlock) return Status::OK();
  return clear_ptr(level1, inner);
}

Status UnixFileSystem::FreeFileBlocks(UfsInode* inode) {
  for (size_t i = 0; i < UfsInode::kNumDirect; ++i) {
    if (inode->direct[i] != UfsInode::kNoBlock) {
      PGLO_RETURN_IF_ERROR(FreeBlock(inode->direct[i]));
      inode->direct[i] = UfsInode::kNoBlock;
    }
  }
  auto free_indirect = [&](uint32_t indirect) -> Status {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(indirect, buf));
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      uint32_t ptr = DecodeFixed32(buf + 4 * i);
      if (ptr != UfsInode::kNoBlock) {
        PGLO_RETURN_IF_ERROR(FreeBlock(ptr));
      }
    }
    return FreeBlock(indirect);
  };
  if (inode->single_indirect != UfsInode::kNoBlock) {
    PGLO_RETURN_IF_ERROR(free_indirect(inode->single_indirect));
    inode->single_indirect = UfsInode::kNoBlock;
  }
  if (inode->double_indirect != UfsInode::kNoBlock) {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(inode->double_indirect, buf));
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      uint32_t level1 = DecodeFixed32(buf + 4 * i);
      if (level1 != UfsInode::kNoBlock) {
        PGLO_RETURN_IF_ERROR(free_indirect(level1));
      }
    }
    PGLO_RETURN_IF_ERROR(FreeBlock(inode->double_indirect));
    inode->double_indirect = UfsInode::kNoBlock;
  }
  inode->size = 0;
  return Status::OK();
}

Status UnixFileSystem::Truncate(uint32_t ino, uint64_t size) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
  if (!inode.in_use()) return Status::NotFound("inode not in use");
  if (size == 0) {
    PGLO_RETURN_IF_ERROR(FreeFileBlocks(&inode));
  } else if (size < inode.size) {
    // Free whole blocks past the new end and clear their mappings so a
    // later re-extension reads zeros (and the freed blocks can be reused
    // by other files without dangling pointers). Partial last block keeps
    // its stale tail bytes masked by `size`.
    uint64_t first_dead = (size + kPageSize - 1) / kPageSize;
    uint64_t last = (inode.size + kPageSize - 1) / kPageSize;
    for (uint64_t b = first_dead; b < last; ++b) {
      PGLO_RETURN_IF_ERROR(ClearMapping(&inode, b));
    }
    // Zero the tail of a partial final block so that re-extending the file
    // reads zeros there, not stale bytes.
    if (size % kPageSize != 0) {
      bool dirty = false;
      PGLO_ASSIGN_OR_RETURN(
          uint32_t phys,
          MapBlock(&inode, &dirty, size / kPageSize, false));
      if (phys != UfsInode::kNoBlock) {
        uint8_t buf[kPageSize];
        PGLO_RETURN_IF_ERROR(ReadBlock(phys, buf));
        std::memset(buf + size % kPageSize, 0, kPageSize - size % kPageSize);
        PGLO_RETURN_IF_ERROR(WriteBlock(phys, buf));
      }
    }
  }
  inode.size = size;
  return StoreInode(ino, inode);
}

Result<std::vector<UnixFileSystem::DirEntry>>
UnixFileSystem::LoadDirectory() {
  PGLO_ASSIGN_OR_RETURN(UfsInode root, LoadInode(kRootInode));
  Bytes data(root.size);
  if (root.size > 0) {
    PGLO_ASSIGN_OR_RETURN(
        size_t n, ReadAt(kRootInode, 0, data.size(), data.data()));
    if (n != data.size()) return Status::Corruption("short directory read");
  }
  std::vector<DirEntry> entries;
  ByteReader reader{Slice(data)};
  while (!reader.exhausted()) {
    Slice name;
    uint32_t ino;
    if (!reader.GetLengthPrefixed(&name) || !reader.GetFixed32(&ino)) {
      return Status::Corruption("bad directory entry");
    }
    entries.push_back({name.ToString(), ino});
  }
  return entries;
}

Status UnixFileSystem::StoreDirectory(const std::vector<DirEntry>& entries) {
  Bytes data;
  for (const DirEntry& e : entries) {
    PutLengthPrefixed(&data, Slice(e.name));
    PutFixed32(&data, e.ino);
  }
  PGLO_RETURN_IF_ERROR(Truncate(kRootInode, 0));
  if (!data.empty()) {
    PGLO_RETURN_IF_ERROR(WriteAt(kRootInode, 0, Slice(data)));
  }
  return Status::OK();
}

Result<uint32_t> UnixFileSystem::Create(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (name.empty()) return Status::InvalidArgument("empty file name");
  PGLO_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, LoadDirectory());
  for (const DirEntry& e : entries) {
    if (e.name == name) return Status::AlreadyExists("file exists: " + name);
  }
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, AllocInode());
  UfsInode inode;
  inode.set_in_use(true);
  PGLO_RETURN_IF_ERROR(StoreInode(ino, inode));
  entries.push_back({name, ino});
  PGLO_RETURN_IF_ERROR(StoreDirectory(entries));
  return ino;
}

Result<uint32_t> UnixFileSystem::Lookup(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, LoadDirectory());
  for (const DirEntry& e : entries) {
    if (e.name == name) return e.ino;
  }
  return Status::NotFound("no such file: " + name);
}

Status UnixFileSystem::Remove(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, LoadDirectory());
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].name == name) {
      PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(entries[i].ino));
      PGLO_RETURN_IF_ERROR(FreeFileBlocks(&inode));
      inode.set_in_use(false);
      PGLO_RETURN_IF_ERROR(StoreInode(entries[i].ino, inode));
      entries.erase(entries.begin() + i);
      return StoreDirectory(entries);
    }
  }
  return Status::NotFound("no such file: " + name);
}

Result<std::vector<std::string>> UnixFileSystem::List() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(std::vector<DirEntry> entries, LoadDirectory());
  std::vector<std::string> names;
  names.reserve(entries.size());
  for (const DirEntry& e : entries) names.push_back(e.name);
  return names;
}

Result<uint64_t> UnixFileSystem::FileSize(uint32_t ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
  if (!inode.in_use()) return Status::NotFound("inode not in use");
  return inode.size;
}

Result<uint64_t> UnixFileSystem::AllocatedBytes(uint32_t ino) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  PGLO_ASSIGN_OR_RETURN(UfsInode inode, LoadInode(ino));
  if (!inode.in_use()) return Status::NotFound("inode not in use");
  uint64_t blocks = 0;
  for (size_t i = 0; i < UfsInode::kNumDirect; ++i) {
    if (inode.direct[i] != UfsInode::kNoBlock) ++blocks;
  }
  auto count_indirect = [&](uint32_t indirect) -> Result<uint64_t> {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(indirect, buf));
    uint64_t n = 1;  // the indirect block itself
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      if (DecodeFixed32(buf + 4 * i) != UfsInode::kNoBlock) ++n;
    }
    return n;
  };
  if (inode.single_indirect != UfsInode::kNoBlock) {
    PGLO_ASSIGN_OR_RETURN(uint64_t n, count_indirect(inode.single_indirect));
    blocks += n;
  }
  if (inode.double_indirect != UfsInode::kNoBlock) {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(inode.double_indirect, buf));
    blocks += 1;
    for (uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      uint32_t level1 = DecodeFixed32(buf + 4 * i);
      if (level1 != UfsInode::kNoBlock) {
        PGLO_ASSIGN_OR_RETURN(uint64_t n, count_indirect(level1));
        blocks += n;
      }
    }
  }
  return blocks * kPageSize;
}

Result<uint32_t> UnixFileSystem::FreeBlocks() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  uint32_t bits_per_block = kPageSize * 8;
  uint32_t free = 0;
  for (uint32_t bb = 0; bb < BitmapBlocks(); ++bb) {
    uint8_t buf[kPageSize];
    PGLO_RETURN_IF_ERROR(ReadBlock(BitmapStart() + bb, buf));
    uint32_t base = bb * bits_per_block;
    uint32_t limit = std::min(params_.capacity_blocks, base + bits_per_block);
    for (uint32_t b = std::max(base, DataStart()); b < limit; ++b) {
      uint32_t bit = b - base;
      if (!(buf[bit / 8] & (1u << (bit % 8)))) ++free;
    }
  }
  return free;
}

Status UnixFileSystem::Sync() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return pool_.FlushAll();
}

}  // namespace pglo

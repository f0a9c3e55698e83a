#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <map>

#include "common/random.h"
#include "storage/page.h"
#include "tests/test_util.h"
#include "ufs/ufs.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

class UfsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UnixFileSystem::Params params;
    params.capacity_blocks = 4096;  // 32 MB
    params.num_inodes = 64;
    params.cache_blocks = 32;
    fs_ = std::make_unique<UnixFileSystem>(nullptr, params);
    ASSERT_OK(fs_->Format(dir_.Sub("fs.img")));
  }

  TempDir dir_;
  std::unique_ptr<UnixFileSystem> fs_;
};

TEST_F(UfsTest, CreateLookupRemove) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("hello.txt"));
  EXPECT_GT(ino, 0u);
  ASSERT_OK_AND_ASSIGN(uint32_t found, fs_->Lookup("hello.txt"));
  EXPECT_EQ(found, ino);
  EXPECT_TRUE(fs_->Create("hello.txt").status().IsAlreadyExists());
  ASSERT_OK(fs_->Remove("hello.txt"));
  EXPECT_TRUE(fs_->Lookup("hello.txt").status().IsNotFound());
  EXPECT_TRUE(fs_->Remove("hello.txt").IsNotFound());
}

TEST_F(UfsTest, ListsFiles) {
  ASSERT_OK(fs_->Create("a").status());
  ASSERT_OK(fs_->Create("b").status());
  ASSERT_OK(fs_->Create("c").status());
  ASSERT_OK(fs_->Remove("b"));
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> names, fs_->List());
  EXPECT_EQ(names.size(), 2u);
}

TEST_F(UfsTest, ReadWriteSmall) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("hello world")));
  ASSERT_OK_AND_ASSIGN(uint64_t size, fs_->FileSize(ino));
  EXPECT_EQ(size, 11u);
  uint8_t buf[32];
  ASSERT_OK_AND_ASSIGN(size_t n, fs_->ReadAt(ino, 0, sizeof(buf), buf));
  EXPECT_EQ(n, 11u);
  EXPECT_EQ(std::memcmp(buf, "hello world", 11), 0);
  // Offset read.
  ASSERT_OK_AND_ASSIGN(n, fs_->ReadAt(ino, 6, sizeof(buf), buf));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(std::memcmp(buf, "world", 5), 0);
}

TEST_F(UfsTest, ReadPastEofIsShort) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("abc")));
  uint8_t buf[8];
  ASSERT_OK_AND_ASSIGN(size_t n, fs_->ReadAt(ino, 10, sizeof(buf), buf));
  EXPECT_EQ(n, 0u);
}

TEST_F(UfsTest, HolesReadAsZeros) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("sparse"));
  ASSERT_OK(fs_->WriteAt(ino, 100'000, Slice("end")));
  uint8_t buf[16];
  ASSERT_OK_AND_ASSIGN(size_t n, fs_->ReadAt(ino, 50'000, sizeof(buf), buf));
  EXPECT_EQ(n, sizeof(buf));
  for (uint8_t b : buf) EXPECT_EQ(b, 0);
  // Sparse file allocates far fewer blocks than its logical size.
  ASSERT_OK_AND_ASSIGN(uint64_t alloc, fs_->AllocatedBytes(ino));
  EXPECT_LT(alloc, 100'000u);
}

TEST_F(UfsTest, LargeFileUsesIndirectBlocks) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("big"));
  // 12 direct blocks cover 96 KB; write 2 MB to force single and spill
  // well past direct pointers.
  Random rng(5);
  Bytes data = rng.RandomBytes(2 * 1024 * 1024);
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice(data)));
  ASSERT_OK_AND_ASSIGN(uint64_t size, fs_->FileSize(ino));
  EXPECT_EQ(size, data.size());
  Bytes readback(data.size());
  ASSERT_OK_AND_ASSIGN(size_t n,
                       fs_->ReadAt(ino, 0, readback.size(), readback.data()));
  EXPECT_EQ(n, data.size());
  EXPECT_EQ(readback, data);
  // Allocated = data blocks + at least one indirect block.
  ASSERT_OK_AND_ASSIGN(uint64_t alloc, fs_->AllocatedBytes(ino));
  EXPECT_GT(alloc, data.size());
}

TEST_F(UfsTest, DoubleIndirectFile) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("huge"));
  // Direct (12) + single indirect (2048) = 2060 blocks = 16.9 MB.
  // Write past that boundary to exercise the double-indirect path.
  uint64_t boundary = (12 + 2048) * static_cast<uint64_t>(kPageSize);
  Bytes data(3 * kPageSize, 0);
  Random rng(6);
  data = rng.RandomBytes(data.size());
  ASSERT_OK(fs_->WriteAt(ino, boundary - kPageSize, Slice(data)));
  Bytes readback(data.size());
  ASSERT_OK_AND_ASSIGN(
      size_t n,
      fs_->ReadAt(ino, boundary - kPageSize, readback.size(),
                  readback.data()));
  EXPECT_EQ(n, data.size());
  EXPECT_EQ(readback, data);
}

TEST_F(UfsTest, OverwriteInPlace) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("aaaaaaaaaa")));
  ASSERT_OK(fs_->WriteAt(ino, 3, Slice("BBB")));
  uint8_t buf[16];
  ASSERT_OK_AND_ASSIGN(size_t n, fs_->ReadAt(ino, 0, sizeof(buf), buf));
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(std::memcmp(buf, "aaaBBBaaaa", 10), 0);
}

TEST_F(UfsTest, TruncateShrinksAndFreesBlocks) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  Bytes data(64 * 1024, 0x3C);
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice(data)));
  ASSERT_OK_AND_ASSIGN(uint32_t free_before, fs_->FreeBlocks());
  ASSERT_OK(fs_->Truncate(ino, 1000));
  ASSERT_OK_AND_ASSIGN(uint64_t size, fs_->FileSize(ino));
  EXPECT_EQ(size, 1000u);
  ASSERT_OK_AND_ASSIGN(uint32_t free_after, fs_->FreeBlocks());
  EXPECT_GT(free_after, free_before);
  uint8_t buf[4];
  ASSERT_OK_AND_ASSIGN(size_t n, fs_->ReadAt(ino, 996, sizeof(buf), buf));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(buf[0], 0x3C);
}

TEST_F(UfsTest, RemoveFreesBlocks) {
  ASSERT_OK_AND_ASSIGN(uint32_t free_initial, fs_->FreeBlocks());
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  Bytes data(512 * 1024, 1);
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice(data)));
  ASSERT_OK(fs_->Remove("f"));
  ASSERT_OK_AND_ASSIGN(uint32_t free_final, fs_->FreeBlocks());
  EXPECT_EQ(free_final, free_initial);
}

TEST_F(UfsTest, RemoveFreesDoubleIndirectChains) {
  // A file past the single-indirect boundary (12 + 2048 blocks ≈ 16.9 MB)
  // must release its full pointer tree, including L1 indirect blocks.
  UnixFileSystem::Params params;
  params.capacity_blocks = 4096;  // 32 MB partition
  params.num_inodes = 8;
  params.cache_blocks = 64;
  UnixFileSystem fs(nullptr, params);
  TempDir dir;
  ASSERT_OK(fs.Format(dir.Sub("big.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t free_initial, fs.FreeBlocks());
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs.Create("big"));
  uint64_t boundary = (12 + 2048) * static_cast<uint64_t>(kPageSize);
  Bytes tail(4 * kPageSize, 0x42);
  ASSERT_OK(fs.WriteAt(ino, boundary, Slice(tail)));  // sparse: hole below
  ASSERT_OK_AND_ASSIGN(uint64_t alloc, fs.AllocatedBytes(ino));
  // 4 data + single-indirect unused + double-indirect + 1 L1 ≈ 6 blocks.
  EXPECT_GE(alloc, 6u * kPageSize);
  ASSERT_OK(fs.Remove("big"));
  ASSERT_OK_AND_ASSIGN(uint32_t free_final, fs.FreeBlocks());
  EXPECT_EQ(free_final, free_initial);
}

TEST_F(UfsTest, PersistsAcrossMount) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("persist"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("durable bytes")));
  ASSERT_OK(fs_->Sync());
  fs_.reset();

  UnixFileSystem::Params params;  // mount re-reads geometry from disk
  UnixFileSystem fs2(nullptr, params);
  ASSERT_OK(fs2.Mount(dir_.Sub("fs.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t found, fs2.Lookup("persist"));
  uint8_t buf[32];
  ASSERT_OK_AND_ASSIGN(size_t n, fs2.ReadAt(found, 0, sizeof(buf), buf));
  EXPECT_EQ(n, 13u);
  EXPECT_EQ(std::memcmp(buf, "durable bytes", 13), 0);
}

TEST_F(UfsTest, CrashLosesUnsyncedWrites) {
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("synced")));
  ASSERT_OK(fs_->Sync());
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice("UNSYNC")));
  fs_->CrashDiscard();

  UnixFileSystem fs2(nullptr, UnixFileSystem::Params{});
  ASSERT_OK(fs2.Mount(dir_.Sub("fs.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t found, fs2.Lookup("f"));
  uint8_t buf[16];
  ASSERT_OK_AND_ASSIGN(size_t n, fs2.ReadAt(found, 0, sizeof(buf), buf));
  EXPECT_EQ(n, 6u);
  EXPECT_EQ(std::memcmp(buf, "synced", 6), 0);
}

TEST_F(UfsTest, OutOfInodes) {
  UnixFileSystem::Params params;
  params.capacity_blocks = 1024;
  params.num_inodes = 4;  // root + 3 files
  UnixFileSystem small(nullptr, params);
  TempDir dir;
  ASSERT_OK(small.Format(dir.Sub("small.img")));
  ASSERT_OK(small.Create("a").status());
  ASSERT_OK(small.Create("b").status());
  ASSERT_OK(small.Create("c").status());
  EXPECT_TRUE(small.Create("d").status().IsResourceExhausted());
}

TEST_F(UfsTest, OutOfSpace) {
  UnixFileSystem::Params params;
  params.capacity_blocks = 16;  // tiny: ~5 data blocks after metadata
  params.num_inodes = 8;
  UnixFileSystem small(nullptr, params);
  TempDir dir;
  ASSERT_OK(small.Format(dir.Sub("small.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, small.Create("f"));
  Bytes data(kPageSize, 1);
  Status last;
  for (int i = 0; i < 20; ++i) {
    last = small.WriteAt(ino, static_cast<uint64_t>(i) * kPageSize,
                         Slice(data));
    if (!last.ok()) break;
  }
  EXPECT_TRUE(last.IsResourceExhausted());
}

// Host-side view of the image file, bypassing the file system's cache.
uint64_t HostFileBlocks(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return (static_cast<uint64_t>(st.st_size) + kPageSize - 1) / kPageSize;
}

Bytes HostBlock(const std::string& path, uint64_t block) {
  Bytes buf(kPageSize, 0);  // past EOF reads as zeros
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ssize_t n = ::pread(fd, buf.data(), buf.size(),
                        static_cast<off_t>(block * kPageSize));
    (void)n;
    ::close(fd);
  }
  return buf;
}

TEST_F(UfsTest, SlottedPageLookalikeBlockReadsBackVerbatim) {
  // A u-file block is raw user bytes, even when they happen to form an
  // initialized slotted page with a stale checksum: the cache must neither
  // stamp a checksum into it on write-back nor reject it on read-in.
  Bytes block(kPageSize, 0x5A);
  SlottedPage page(block.data());
  page.Init();
  ASSERT_OK(page.AddItem(Slice("user bytes")).status());
  page.UpdateChecksum();
  block[kPageSize - 1] ^= 0xFF;
  ASSERT_TRUE(page.IsInitialized());
  ASSERT_FALSE(page.VerifyChecksum());

  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs_->Create("f"));
  ASSERT_OK(fs_->WriteAt(ino, 0, Slice(block)));
  auto expect_verbatim = [&](UnixFileSystem& fs, const char* when) {
    Bytes got(kPageSize);
    Result<size_t> n = fs.ReadAt(ino, 0, got.size(), got.data());
    ASSERT_TRUE(n.ok()) << when << ": " << n.status().ToString();
    EXPECT_EQ(got, block) << when;
  };
  // 40 more blocks through the 32-block cache evict the first.
  ASSERT_OK(fs_->WriteAt(ino, kPageSize, Slice(Bytes(40 * kPageSize, 1))));
  expect_verbatim(*fs_, "after eviction");
  ASSERT_OK(fs_->Sync());
  expect_verbatim(*fs_, "after Sync");
  fs_.reset();
  UnixFileSystem fs2(nullptr, UnixFileSystem::Params{});
  ASSERT_OK(fs2.Mount(dir_.Sub("fs.img")));
  expect_verbatim(fs2, "after Mount");
}

TEST(UfsWriteBackTest, RunPastTheWrittenExtentIsWrittenAsItIs) {
  // The image may hold holes. A sorted write-back whose first run starts
  // past the image's written extent must write that run as it is — not
  // fail, and not first write a dirty block below it, as filling the gap
  // below a relation file's appended tail would.
  TempDir dir;
  const std::string img = dir.Sub("fs.img");
  UnixFileSystem::Params params;
  params.capacity_blocks = 4096;
  params.num_inodes = 64;
  params.cache_blocks = 80;  // above the 64-block write-behind batch
  auto fs = std::make_unique<UnixFileSystem>(nullptr, params);
  ASSERT_OK(fs->Format(img));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs->Create("f"));
  ASSERT_OK(fs->Sync());
  auto fill = [](uint64_t logical) {
    return Bytes(kPageSize, static_cast<uint8_t>(logical + 1));
  };
  // The allocator hands out blocks upward from the written extent: file
  // block 0 lands on `low`, file block 1 on `low + 1`.
  const uint64_t low = HostFileBlocks(img);
  ASSERT_OK(fs->WriteAt(ino, 0, Slice(fill(0))));
  // Write higher blocks, rewriting block 0 after each so it stays the
  // most recently used, until a write-behind batch reaches the image.
  uint64_t blocks = 1;
  for (; HostFileBlocks(img) <= low; ++blocks) {
    ASSERT_LT(blocks, 200u) << "no write-behind batch reached the image";
    ASSERT_OK(fs->WriteAt(ino, blocks * kPageSize, Slice(fill(blocks))));
    ASSERT_OK(fs->WriteAt(ino, 0, Slice(fill(0))));
  }
  EXPECT_EQ(HostBlock(img, low), Bytes(kPageSize, 0));
  EXPECT_EQ(HostBlock(img, low + 1), fill(1));
  ASSERT_OK(fs->Sync());
  EXPECT_EQ(HostBlock(img, low), fill(0));

  auto expect_all = [&](UnixFileSystem& f, const char* when) {
    for (uint64_t b = 0; b < blocks; ++b) {
      Bytes got(kPageSize);
      ASSERT_OK(f.ReadAt(ino, b * kPageSize, got.size(), got.data())
                    .status());
      EXPECT_EQ(got, fill(b)) << when << ", file block " << b;
    }
  };
  expect_all(*fs, "after Sync");
  fs.reset();
  UnixFileSystem remounted(nullptr, UnixFileSystem::Params{});
  ASSERT_OK(remounted.Mount(img));
  expect_all(remounted, "after Mount");
}

TEST_F(UfsTest, DeviceChargedOnMissesOnly) {
  TempDir dir;
  SimClock clock;
  MagneticDiskModel device(&clock, DiskModelParams{});
  StatsRegistry stats;
  stats.SetClock(&clock);  // command counts are the histograms' counts
  device.BindStats(&stats, "ufs");
  Histogram* reads = stats.histogram("device.ufs.read_ns");
  UnixFileSystem::Params params;
  params.capacity_blocks = 1024;
  params.cache_blocks = 64;
  UnixFileSystem fs(&device, params);
  ASSERT_OK(fs.Format(dir.Sub("fs.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs.Create("f"));
  Bytes data(kPageSize, 2);
  ASSERT_OK(fs.WriteAt(ino, 0, Slice(data)));
  uint64_t before = reads->count();
  uint8_t buf[64];
  // Repeated reads of a cached block charge nothing.
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(fs.ReadAt(ino, 0, sizeof(buf), buf).status());
  }
  EXPECT_EQ(reads->count(), before);
  // Whole-block writes to uncached blocks charge no read either: fresh
  // blocks past the 64-block cache, then the evicted direct blocks
  // overwritten whole. The cache installs them without fetching them.
  for (uint64_t b = 1; b < 100; ++b) {
    ASSERT_OK(fs.WriteAt(ino, b * kPageSize, Slice(data)));
  }
  for (uint64_t b = 0; b < UfsInode::kNumDirect; ++b) {
    ASSERT_OK(fs.WriteAt(ino, b * kPageSize, Slice(data)));
  }
  EXPECT_EQ(reads->count(), before);
}

// Property test: random writes/reads against an in-memory reference file.
class UfsFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UfsFuzz, MatchesReferenceModel) {
  TempDir dir;
  UnixFileSystem::Params params;
  params.capacity_blocks = 8192;
  params.cache_blocks = 16;
  UnixFileSystem fs(nullptr, params);
  ASSERT_OK(fs.Format(dir.Sub("fs.img")));
  ASSERT_OK_AND_ASSIGN(uint32_t ino, fs.Create("fuzz"));

  Random rng(GetParam());
  Bytes model;  // reference contents
  constexpr uint64_t kMaxSize = 600 * 1024;

  for (int step = 0; step < 300; ++step) {
    uint64_t off = rng.Uniform(kMaxSize);
    size_t len = static_cast<size_t>(rng.Range(1, 20'000));
    if (rng.OneInHundred(60)) {  // write
      if (off + len > kMaxSize) len = kMaxSize - off;
      Bytes data = rng.RandomBytes(len);
      ASSERT_OK(fs.WriteAt(ino, off, Slice(data)));
      if (model.size() < off + len) model.resize(off + len, 0);
      std::memcpy(model.data() + off, data.data(), len);
    } else {  // read
      Bytes got(len);
      ASSERT_OK_AND_ASSIGN(size_t n, fs.ReadAt(ino, off, len, got.data()));
      size_t expect_n =
          off >= model.size()
              ? 0
              : std::min<size_t>(len, model.size() - off);
      ASSERT_EQ(n, expect_n) << "step " << step;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], model[off + i]) << "step " << step << " i " << i;
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(uint64_t size, fs.FileSize(ino));
  EXPECT_EQ(size, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UfsFuzz,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace pglo

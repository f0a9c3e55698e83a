#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "common/random.h"
#include "smgr/disk_smgr.h"
#include "smgr/mm_smgr.h"
#include "smgr/smgr_registry.h"
#include "smgr/worm_smgr.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

/// The WORM counter `smgr.worm.<name>` of a manager bound to `stats`.
uint64_t WormCount(StatsRegistry& stats, const std::string& name) {
  return stats.counter("smgr.worm." + name)->value();
}

void FillBlock(uint8_t* buf, uint8_t seed) {
  for (uint32_t i = 0; i < kPageSize; ++i) {
    buf[i] = static_cast<uint8_t>(seed + i);
  }
}

// Shared contract tests run against every storage manager implementation.
class SmgrContractTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    name_ = GetParam();
    if (name_ == std::string("disk")) {
      smgr_ = std::make_unique<DiskSmgr>(dir_.Sub("disk"), nullptr);
    } else if (name_ == std::string("memory")) {
      smgr_ = std::make_unique<MainMemorySmgr>(nullptr);
    } else {
      auto worm = std::make_unique<WormSmgr>(dir_.path(), nullptr, nullptr,
                                             /*cache_blocks=*/8);
      ASSERT_OK(worm->Open());
      smgr_ = std::move(worm);
    }
  }

  TempDir dir_;
  std::string name_;
  std::unique_ptr<StorageManager> smgr_;
};

TEST_P(SmgrContractTest, CreateExistsDrop) {
  EXPECT_FALSE(smgr_->FileExists(42));
  ASSERT_OK(smgr_->CreateFile(42));
  EXPECT_TRUE(smgr_->FileExists(42));
  EXPECT_TRUE(smgr_->CreateFile(42).IsAlreadyExists());
  ASSERT_OK(smgr_->DropFile(42));
  EXPECT_FALSE(smgr_->FileExists(42));
  EXPECT_TRUE(smgr_->DropFile(42).IsNotFound());
}

TEST_P(SmgrContractTest, WriteReadRoundTrip) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t wbuf[kPageSize], rbuf[kPageSize];
  for (uint8_t b = 0; b < 10; ++b) {
    FillBlock(wbuf, b);
    ASSERT_OK(smgr_->WriteBlock(1, b, wbuf));
  }
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 10u);
  for (uint8_t b = 0; b < 10; ++b) {
    ASSERT_OK(smgr_->ReadBlock(1, b, rbuf));
    FillBlock(wbuf, b);
    EXPECT_EQ(std::memcmp(rbuf, wbuf, kPageSize), 0) << "block " << int{b};
  }
}

TEST_P(SmgrContractTest, OverwriteBlock) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t wbuf[kPageSize], rbuf[kPageSize];
  FillBlock(wbuf, 1);
  ASSERT_OK(smgr_->WriteBlock(1, 0, wbuf));
  FillBlock(wbuf, 99);
  ASSERT_OK(smgr_->WriteBlock(1, 0, wbuf));
  ASSERT_OK(smgr_->ReadBlock(1, 0, rbuf));
  EXPECT_EQ(std::memcmp(rbuf, wbuf, kPageSize), 0);
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 1u);
}

TEST_P(SmgrContractTest, NoHoles) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[kPageSize] = {};
  EXPECT_TRUE(smgr_->WriteBlock(1, 5, buf).IsInvalidArgument());
}

TEST_P(SmgrContractTest, ReadPastEndFails) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[kPageSize];
  Status s = smgr_->ReadBlock(1, 0, buf);
  EXPECT_TRUE(s.IsOutOfRange()) << s.ToString();
}

TEST_P(SmgrContractTest, MissingFileOperations) {
  uint8_t buf[kPageSize] = {};
  EXPECT_FALSE(smgr_->ReadBlock(7, 0, buf).ok());
  EXPECT_FALSE(smgr_->WriteBlock(7, 0, buf).ok());
  EXPECT_FALSE(smgr_->NumBlocks(7).ok());
}

TEST_P(SmgrContractTest, VectoredWriteReadRoundTrip) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t wbuf[8 * kPageSize], rbuf[8 * kPageSize];
  for (uint8_t b = 0; b < 8; ++b) FillBlock(wbuf + b * kPageSize, b);
  ASSERT_OK(smgr_->WriteBlocks(1, 0, 8, wbuf));
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 8u);
  ASSERT_OK(smgr_->ReadBlocks(1, 0, 8, rbuf));
  EXPECT_EQ(std::memcmp(rbuf, wbuf, sizeof wbuf), 0);
  // The vectored image must be indistinguishable from per-block access.
  for (uint8_t b = 0; b < 8; ++b) {
    ASSERT_OK(smgr_->ReadBlock(1, b, rbuf));
    EXPECT_EQ(std::memcmp(rbuf, wbuf + b * kPageSize, kPageSize), 0)
        << "block " << int{b};
  }
}

TEST_P(SmgrContractTest, VectoredZeroLengthIsNoOp) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[kPageSize];
  FillBlock(buf, 9);
  ASSERT_OK(smgr_->WriteBlock(1, 0, buf));
  ASSERT_OK(smgr_->ReadBlocks(1, 0, 0, nullptr));
  ASSERT_OK(smgr_->WriteBlocks(1, 1, 0, nullptr));
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 1u);  // a zero-length write never extends the file
}

TEST_P(SmgrContractTest, VectoredReadCrossingEofFails) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[4 * kPageSize];
  for (uint8_t b = 0; b < 4; ++b) FillBlock(buf + b * kPageSize, b);
  ASSERT_OK(smgr_->WriteBlocks(1, 0, 4, buf));
  // A run that starts inside the file but crosses the append frontier must
  // fail whole — no partial reads.
  Status crossing = smgr_->ReadBlocks(1, 2, 4, buf);
  EXPECT_TRUE(crossing.IsOutOfRange()) << crossing.ToString();
  Status past = smgr_->ReadBlocks(1, 4, 1, buf);
  EXPECT_TRUE(past.IsOutOfRange()) << past.ToString();
  ASSERT_OK(smgr_->ReadBlocks(1, 2, 2, buf));
}

TEST_P(SmgrContractTest, VectoredWriteExtendsFromInsideFile) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[4 * kPageSize];
  for (uint8_t b = 0; b < 4; ++b) FillBlock(buf + b * kPageSize, b);
  ASSERT_OK(smgr_->WriteBlocks(1, 0, 4, buf));
  // Overlap the tail and extend past it in one run: blocks 2..5.
  for (uint8_t b = 0; b < 4; ++b) FillBlock(buf + b * kPageSize, 10 + b);
  ASSERT_OK(smgr_->WriteBlocks(1, 2, 4, buf));
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 6u);
  uint8_t rbuf[kPageSize], want[kPageSize];
  for (uint8_t b = 2; b < 6; ++b) {
    ASSERT_OK(smgr_->ReadBlock(1, b, rbuf));
    FillBlock(want, static_cast<uint8_t>(10 + b - 2));
    EXPECT_EQ(std::memcmp(rbuf, want, kPageSize), 0) << "block " << int{b};
  }
}

TEST_P(SmgrContractTest, VectoredWriteLeavingHoleFails) {
  ASSERT_OK(smgr_->CreateFile(1));
  uint8_t buf[2 * kPageSize];
  FillBlock(buf, 1);
  FillBlock(buf + kPageSize, 2);
  EXPECT_FALSE(smgr_->WriteBlocks(1, 1, 2, buf).ok());  // 0-block file
  ASSERT_OK(smgr_->WriteBlocks(1, 0, 2, buf));
  EXPECT_FALSE(smgr_->WriteBlocks(1, 3, 2, buf).ok());  // skips block 2
  ASSERT_OK_AND_ASSIGN(BlockNumber n, smgr_->NumBlocks(1));
  EXPECT_EQ(n, 2u);  // failed writes left no trace
}

INSTANTIATE_TEST_SUITE_P(AllSmgrs, SmgrContractTest,
                         ::testing::Values("disk", "memory", "worm"));

TEST(DiskSmgrTest, PersistsAcrossReopen) {
  TempDir dir;
  uint8_t wbuf[kPageSize], rbuf[kPageSize];
  FillBlock(wbuf, 7);
  {
    DiskSmgr smgr(dir.Sub("d"), nullptr);
    ASSERT_OK(smgr.CreateFile(5));
    ASSERT_OK(smgr.WriteBlock(5, 0, wbuf));
    ASSERT_OK(smgr.Sync(5));
  }
  {
    DiskSmgr smgr(dir.Sub("d"), nullptr);
    EXPECT_TRUE(smgr.FileExists(5));
    ASSERT_OK(smgr.ReadBlock(5, 0, rbuf));
    EXPECT_EQ(std::memcmp(rbuf, wbuf, kPageSize), 0);
  }
}

TEST(DiskSmgrTest, ChargesDevice) {
  TempDir dir;
  SimClock clock;
  MagneticDiskModel device(&clock, DiskModelParams{});
  StatsRegistry stats;
  stats.SetClock(&clock);  // command counts are the histograms' counts
  device.BindStats(&stats, "disk");
  DiskSmgr smgr(dir.Sub("d"), &device);
  ASSERT_OK(smgr.CreateFile(1));
  uint8_t buf[kPageSize] = {};
  ASSERT_OK(smgr.WriteBlock(1, 0, buf));
  ASSERT_OK(smgr.ReadBlock(1, 0, buf));
  EXPECT_EQ(stats.histogram("device.disk.read_ns")->count(), 1u);
  EXPECT_EQ(stats.histogram("device.disk.write_ns")->count(), 1u);
  EXPECT_GT(clock.NowNanos(), 0u);
}

TEST(WormSmgrTest, RewriteRelocatesAndWastesPlatter) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, 8);
  StatsRegistry stats;
  worm.BindStats(&stats);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[kPageSize];
  FillBlock(buf, 1);
  ASSERT_OK(worm.WriteBlock(1, 0, buf));
  ASSERT_OK_AND_ASSIGN(uint64_t bytes_before, worm.StorageBytes(1));
  EXPECT_EQ(bytes_before, kPageSize);
  FillBlock(buf, 2);
  ASSERT_OK(worm.WriteBlock(1, 0, buf));  // write-once: relocation
  ASSERT_OK_AND_ASSIGN(uint64_t bytes_after, worm.StorageBytes(1));
  EXPECT_EQ(bytes_after, 2 * kPageSize);  // dead platter space counted
  EXPECT_EQ(WormCount(stats, "relocations"), 1u);
  uint8_t rbuf[kPageSize];
  ASSERT_OK(worm.ReadBlock(1, 0, rbuf));
  EXPECT_EQ(std::memcmp(rbuf, buf, kPageSize), 0);  // newest version read
}

TEST(WormSmgrTest, VectoredRewriteBurnsFreshRunAndRelocates) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, 8);
  StatsRegistry stats;
  worm.BindStats(&stats);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[4 * kPageSize];
  for (uint8_t b = 0; b < 4; ++b) FillBlock(buf + b * kPageSize, b);
  ASSERT_OK(worm.WriteBlocks(1, 0, 4, buf));
  EXPECT_EQ(WormCount(stats, "optical_writes"), 4u);
  EXPECT_EQ(WormCount(stats, "relocations"), 0u);
  ASSERT_OK_AND_ASSIGN(uint64_t bytes, worm.StorageBytes(1));
  EXPECT_EQ(bytes, 4 * kPageSize);
  // Write-once platter: rewriting blocks 1..2 in one run burns two fresh
  // optical blocks and strands the originals as dead platter space.
  uint8_t buf2[2 * kPageSize];
  FillBlock(buf2, 20);
  FillBlock(buf2 + kPageSize, 21);
  ASSERT_OK(worm.WriteBlocks(1, 1, 2, buf2));
  EXPECT_EQ(WormCount(stats, "optical_writes"), 6u);
  EXPECT_EQ(WormCount(stats, "relocations"), 2u);
  ASSERT_OK_AND_ASSIGN(bytes, worm.StorageBytes(1));
  EXPECT_EQ(bytes, 6 * kPageSize);
  uint8_t rbuf[4 * kPageSize];
  ASSERT_OK(worm.ReadBlocks(1, 0, 4, rbuf));
  std::memcpy(buf + kPageSize, buf2, 2 * kPageSize);
  EXPECT_EQ(std::memcmp(rbuf, buf, sizeof buf), 0);  // newest versions read
}

TEST(WormSmgrTest, VectoredReadMixesCacheHitsAndOpticalRuns) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, 8);
  StatsRegistry stats;
  worm.BindStats(&stats);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[5 * kPageSize];
  for (uint8_t b = 0; b < 5; ++b) FillBlock(buf + b * kPageSize, b);
  ASSERT_OK(worm.WriteBlocks(1, 0, 5, buf));
  worm.DropCache();
  uint8_t rbuf[5 * kPageSize];
  ASSERT_OK(worm.ReadBlock(1, 2, rbuf));  // cache block 2 only
  stats.Reset();
  // The run is served as cached block 2 plus two optical sub-runs around
  // it, and every block still comes back with the right contents.
  ASSERT_OK(worm.ReadBlocks(1, 0, 5, rbuf));
  EXPECT_EQ(std::memcmp(rbuf, buf, sizeof buf), 0);
  EXPECT_EQ(WormCount(stats, "cache_hits"), 1u);
  EXPECT_EQ(WormCount(stats, "cache_misses"), 4u);
  EXPECT_EQ(WormCount(stats, "optical_reads"), 4u);
}

TEST(WormSmgrTest, CacheServesRepeatReads) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, 4);
  StatsRegistry stats;
  worm.BindStats(&stats);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[kPageSize];
  FillBlock(buf, 3);
  ASSERT_OK(worm.WriteBlock(1, 0, buf));
  stats.Reset();
  worm.DropCache();
  uint8_t rbuf[kPageSize];
  ASSERT_OK(worm.ReadBlock(1, 0, rbuf));  // miss -> optical
  ASSERT_OK(worm.ReadBlock(1, 0, rbuf));  // hit -> magnetic cache
  EXPECT_EQ(WormCount(stats, "cache_misses"), 1u);
  EXPECT_EQ(WormCount(stats, "cache_hits"), 1u);
  EXPECT_EQ(WormCount(stats, "optical_reads"), 1u);
}

TEST(WormSmgrTest, CacheEvictsAtCapacity) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, /*cache_blocks=*/2);
  StatsRegistry stats;
  worm.BindStats(&stats);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[kPageSize] = {};
  for (BlockNumber b = 0; b < 4; ++b) {
    ASSERT_OK(worm.WriteBlock(1, b, buf));
  }
  stats.Reset();
  uint8_t rbuf[kPageSize];
  // Blocks 0 and 1 were evicted when 2 and 3 were written.
  ASSERT_OK(worm.ReadBlock(1, 0, rbuf));
  EXPECT_EQ(WormCount(stats, "cache_misses"), 1u);
  ASSERT_OK(worm.ReadBlock(1, 3, rbuf));
  EXPECT_EQ(WormCount(stats, "cache_hits"), 1u);
}

TEST(WormSmgrTest, PersistsAcrossReopen) {
  TempDir dir;
  uint8_t buf[kPageSize];
  FillBlock(buf, 9);
  {
    WormSmgr worm(dir.path(), nullptr, nullptr, 8);
    ASSERT_OK(worm.Open());
    ASSERT_OK(worm.CreateFile(3));
    ASSERT_OK(worm.WriteBlock(3, 0, buf));
    FillBlock(buf, 10);
    ASSERT_OK(worm.WriteBlock(3, 1, buf));
    ASSERT_OK(worm.Sync(3));
  }
  {
    WormSmgr worm(dir.path(), nullptr, nullptr, 8);
    ASSERT_OK(worm.Open());
    EXPECT_TRUE(worm.FileExists(3));
    ASSERT_OK_AND_ASSIGN(BlockNumber n, worm.NumBlocks(3));
    EXPECT_EQ(n, 2u);
    uint8_t rbuf[kPageSize];
    ASSERT_OK(worm.ReadBlock(3, 1, rbuf));
    EXPECT_EQ(std::memcmp(rbuf, buf, kPageSize), 0);
  }
}

TEST(WormSmgrTest, DropRetiresMapButKeepsPlatterSpace) {
  TempDir dir;
  WormSmgr worm(dir.path(), nullptr, nullptr, 8);
  ASSERT_OK(worm.Open());
  ASSERT_OK(worm.CreateFile(1));
  uint8_t buf[kPageSize] = {};
  ASSERT_OK(worm.WriteBlock(1, 0, buf));
  ASSERT_OK(worm.DropFile(1));
  EXPECT_FALSE(worm.FileExists(1));
  // Recreate: fresh map, platter space from the old incarnation is gone
  // forever (write-once media).
  ASSERT_OK(worm.CreateFile(1));
  ASSERT_OK_AND_ASSIGN(BlockNumber n, worm.NumBlocks(1));
  EXPECT_EQ(n, 0u);
}

// Property test: random write-once workload (writes, rewrites, reads,
// drops, reopens) against an in-memory reference model.
class WormFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WormFuzz, MatchesReferenceModel) {
  TempDir dir;
  Random rng(GetParam());
  // Reference: per relfile, vector of blocks (by content seed).
  std::map<Oid, std::vector<uint64_t>> model;
  uint64_t expected_burn_total = 0;

  auto worm = std::make_unique<WormSmgr>(dir.path(), nullptr, nullptr,
                                         /*cache_blocks=*/4);
  ASSERT_OK(worm->Open());

  auto fill = [](uint64_t seed, uint8_t* buf) {
    Random content(seed + 1);
    for (uint32_t i = 0; i < kPageSize; ++i) {
      buf[i] = static_cast<uint8_t>(content.Next());
    }
  };

  uint8_t buf[kPageSize];
  for (int step = 0; step < 400; ++step) {
    switch (rng.Uniform(6)) {
      case 0: {  // create
        Oid oid = static_cast<Oid>(rng.Range(1, 6));
        Status s = worm->CreateFile(oid);
        if (model.count(oid)) {
          EXPECT_TRUE(s.IsAlreadyExists());
        } else {
          ASSERT_OK(s);
          model[oid];
        }
        break;
      }
      case 1:
      case 2: {  // write (append or rewrite)
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        BlockNumber block = static_cast<BlockNumber>(
            rng.Uniform(it->second.size() + 1));
        uint64_t seed = rng.Next();
        fill(seed, buf);
        ASSERT_OK(worm->WriteBlock(it->first, block, buf));
        ++expected_burn_total;
        if (block == it->second.size()) {
          it->second.push_back(seed);
        } else {
          it->second[block] = seed;
        }
        break;
      }
      case 3: {  // read + verify
        if (model.empty()) break;
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        if (it->second.empty()) break;
        BlockNumber block =
            static_cast<BlockNumber>(rng.Uniform(it->second.size()));
        ASSERT_OK(worm->ReadBlock(it->first, block, buf));
        uint8_t expect[kPageSize];
        fill(it->second[block], expect);
        ASSERT_EQ(std::memcmp(buf, expect, kPageSize), 0)
            << "step " << step;
        break;
      }
      case 4: {  // drop
        if (model.empty() || !rng.OneInHundred(20)) break;
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_OK(worm->DropFile(it->first));
        model.erase(it);
        break;
      }
      case 5: {  // reopen (replays the relocation map)
        if (!rng.OneInHundred(10)) break;
        ASSERT_OK(worm->Sync(0));
        worm = std::make_unique<WormSmgr>(dir.path(), nullptr, nullptr, 4);
        ASSERT_OK(worm->Open());
        break;
      }
    }
  }
  // Full verification after the storm.
  for (const auto& [oid, blocks] : model) {
    ASSERT_TRUE(worm->FileExists(oid));
    ASSERT_OK_AND_ASSIGN(BlockNumber n, worm->NumBlocks(oid));
    ASSERT_EQ(n, blocks.size());
    for (BlockNumber b = 0; b < blocks.size(); ++b) {
      ASSERT_OK(worm->ReadBlock(oid, b, buf));
      uint8_t expect[kPageSize];
      fill(blocks[b], expect);
      ASSERT_EQ(std::memcmp(buf, expect, kPageSize), 0)
          << "oid " << oid << " block " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WormFuzz,
                         ::testing::Values(3, 14, 159, 265, 358));

TEST(SmgrRegistryTest, RegisterResolveUnregister) {
  SmgrRegistry registry;
  EXPECT_FALSE(registry.Has(0));
  EXPECT_TRUE(registry.Get(0).status().IsNotFound());
  ASSERT_OK(registry.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  EXPECT_TRUE(registry.Has(0));
  ASSERT_OK_AND_ASSIGN(StorageManager * smgr, registry.Get(0));
  EXPECT_EQ(smgr->name(), "main-memory");
  EXPECT_TRUE(
      registry.Register(0, std::make_unique<MainMemorySmgr>(nullptr))
          .IsAlreadyExists());
  ASSERT_OK(registry.Unregister(0));
  EXPECT_FALSE(registry.Has(0));
}

TEST(SmgrRegistryTest, UserDefinedStorageManagerSlot) {
  // §7: "any user can define a new storage manager by writing and
  // registering a small set of interface routines."
  class NullSmgr : public MainMemorySmgr {
   public:
    NullSmgr() : MainMemorySmgr(nullptr) {}
    std::string name() const override { return "user-defined"; }
  };
  SmgrRegistry registry;
  ASSERT_OK(registry.Register(7, std::make_unique<NullSmgr>()));
  ASSERT_OK_AND_ASSIGN(StorageManager * smgr, registry.Get(7));
  EXPECT_EQ(smgr->name(), "user-defined");
  ASSERT_OK(smgr->CreateFile(1));
  EXPECT_TRUE(smgr->FileExists(1));
}

TEST(SmgrRegistryTest, SlotOutOfRange) {
  SmgrRegistry registry;
  EXPECT_TRUE(
      registry.Register(200, std::make_unique<MainMemorySmgr>(nullptr))
          .IsInvalidArgument());
}

}  // namespace
}  // namespace pglo

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include "btree/btree.h"
#include "btree/btree_page.h"
#include "common/random.h"
#include "db/check.h"
#include "db/database.h"
#include "heap/heap_class.h"
#include "smgr/mm_smgr.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 64;
    ASSERT_OK(db_.Open(options));
    session_ = db_.Connect();
  }

  Oid MakeObject(StorageKind kind, const char* codec, size_t bytes) {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    spec.kind = kind;
    spec.codec = codec;
    Oid oid = db_.large_objects().Create(txn, spec).value();
    auto lo = db_.large_objects().Instantiate(txn, oid).value();
    Random rng(oid);
    Bytes data = rng.RandomBytes(bytes);
    EXPECT_OK(lo->Write(txn, 0, Slice(data)));
    EXPECT_OK(session_->Commit().status());
    return oid;
  }

  TempDir dir_;
  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(CheckTest, CleanDatabasePasses) {
  MakeObject(StorageKind::kFChunk, "", 60'000);
  MakeObject(StorageKind::kFChunk, "lzss", 60'000);
  MakeObject(StorageKind::kVSegment, "rle", 60'000);
  ASSERT_OK_AND_ASSIGN(IntegrityReport report, CheckIntegrity(&db_));
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.objects_checked, 3u);
  EXPECT_GE(report.btrees_checked, 3u);
  EXPECT_GT(report.entries_checked, 0u);
}

TEST_F(CheckTest, DetectsOnDiskCorruption) {
  Oid oid = MakeObject(StorageKind::kFChunk, "", 120'000);
  ASSERT_OK(db_.Close());

  // Flip bytes in the middle of the chunk heap's relation file. The
  // relfile oid is not externally known, so corrupt every .rel file's
  // interior — the checksum must catch it on next read.
  std::string disk_dir = dir_.Sub("db") + "/disk";
  std::string cmd =
      "for f in " + disk_dir + "/*.rel; do "
      "size=$(stat -c %s \"$f\"); "
      "if [ \"$size\" -gt 20000 ]; then "
      "printf 'CORRUPTION' | dd of=\"$f\" bs=1 seek=12000 conv=notrunc "
      "2>/dev/null; fi; done";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  DatabaseOptions options;
  options.dir = dir_.Sub("db");
  options.charge_devices = false;
  Database db2;
  ASSERT_OK(db2.Open(options));
  ASSERT_OK_AND_ASSIGN(IntegrityReport report, CheckIntegrity(&db2));
  EXPECT_FALSE(report.ok());
  (void)oid;
}

TEST_F(CheckTest, ReadPathRejectsCorruptPages) {
  Oid oid = MakeObject(StorageKind::kFChunk, "", 50'000);
  ASSERT_OK(db_.pool().FlushAll());
  // Corrupt the object's pages on disk, drop the cache, then read.
  ASSERT_OK(db_.Close());
  std::string disk_dir = dir_.Sub("db") + "/disk";
  std::string cmd =
      "for f in " + disk_dir + "/*.rel; do "
      "size=$(stat -c %s \"$f\"); "
      "if [ \"$size\" -gt 40000 ]; then "
      "printf 'XXXX' | dd of=\"$f\" bs=1 seek=9000 conv=notrunc "
      "2>/dev/null; fi; done";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  DatabaseOptions options;
  options.dir = dir_.Sub("db");
  options.charge_devices = false;
  Database db2;
  ASSERT_OK(db2.Open(options));
  auto session2 = db2.Connect();
  Transaction* txn = session2->Begin();
  auto lo = db2.large_objects().Instantiate(txn, oid);
  bool corruption_seen = false;
  if (lo.ok()) {
    Bytes buf(50'000);
    Result<size_t> n = lo.value()->Read(txn, 0, buf.size(), buf.data());
    corruption_seen = !n.ok() && n.status().IsCorruption();
  } else {
    corruption_seen = lo.status().IsCorruption();
  }
  EXPECT_TRUE(corruption_seen);
  ASSERT_OK(session2->Abort());
}

TEST_F(CheckTest, UndecodableChunkRecordIsCorruption) {
  Oid oid = MakeObject(StorageKind::kFChunk, "", 20'000);
  // Replace chunk 0's visible version with a 4-byte tuple, which no chunk
  // record decodes from, and index it under sequence number 0.
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto objects, db_.large_objects().List(txn));
    ASSERT_EQ(objects.size(), 1u);
    const LoManager::ObjectInfo& obj = objects[0];
    ASSERT_EQ(obj.oid, oid);
    HeapClass heap(&db_.pool(), RelFileId{obj.spec.smgr, obj.files.data});
    Btree index(&db_.pool(), RelFileId{obj.spec.smgr, obj.files.index});
    std::vector<uint64_t> entries;
    ASSERT_OK(index
                  .Scan(0, 0,
                        [&](uint64_t, uint64_t value) -> Result<bool> {
                          entries.push_back(value);
                          return false;
                        })
                  .status());
    ASSERT_EQ(entries.size(), 1u);
    const uint8_t garbage[4] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_OK_AND_ASSIGN(Tid planted,
                         heap.Update(txn, Btree::UnpackTid(entries[0]),
                                     Slice(garbage, sizeof(garbage))));
    ASSERT_OK(index.Insert(0, planted));
    ASSERT_OK(session_->Commit().status());
  }

  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
  Bytes buf(100);
  Result<size_t> n = lo->Read(txn, 0, buf.size(), buf.data());
  EXPECT_TRUE(n.status().IsCorruption()) << n.status().ToString();
  Status w = lo->Write(txn, 10, Slice("overwrite"));
  EXPECT_TRUE(w.IsCorruption()) << w.ToString();
  ASSERT_OK(session_->Abort());

  ASSERT_OK_AND_ASSIGN(IntegrityReport report, CheckIntegrity(&db_));
  EXPECT_FALSE(report.ok()) << report.ToString();
  Result<uint64_t> vacuumed = db_.large_objects().Vacuum(db_.Now());
  EXPECT_TRUE(vacuumed.status().IsCorruption()) << vacuumed.status().ToString();
}

// Torture: random transactional workloads punctuated by crashes and
// vacuums; the integrity sweep must pass after every recovery.
class CrashIntegrityFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashIntegrityFuzz, IntegrityHoldsThroughCrashes) {
  TempDir dir;
  DatabaseOptions options;
  options.dir = dir.Sub("db");
  options.charge_devices = false;
  options.buffer_pool_frames = 64;
  Database db;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();

  Random rng(GetParam());
  std::vector<Oid> committed_objects;

  for (int round = 0; round < 12; ++round) {
    Transaction* txn = session->Begin();
    // Mutate: maybe create an object, write to a random committed one.
    bool created = false;
    Oid fresh = kInvalidOid;
    if (committed_objects.size() < 4 || rng.OneInHundred(30)) {
      LoSpec spec;
      spec.kind = rng.OneInHundred(50) ? StorageKind::kFChunk
                                       : StorageKind::kVSegment;
      spec.codec = rng.OneInHundred(50) ? "lzss" : "";
      ASSERT_OK_AND_ASSIGN(fresh, db.large_objects().Create(txn, spec));
      created = true;
    }
    Oid target = created ? fresh
                         : committed_objects[rng.Uniform(
                               committed_objects.size())];
    ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, target));
    for (int w = 0; w < 5; ++w) {
      Bytes data = rng.RandomBytes(rng.Range(500, 20'000));
      ASSERT_OK(lo->Write(txn, rng.Uniform(60'000), Slice(data)));
    }
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_OK(session->Commit().status());
        if (created) committed_objects.push_back(fresh);
        break;
      case 1:
        ASSERT_OK(session->Abort());
        break;
      case 2:
        if (rng.OneInHundred(50)) {
          ASSERT_OK(db.pool().FlushAll());
        }
        session->Abandon();
        ASSERT_OK(db.SimulateCrashAndReopen());
        break;
    }
    if (rng.OneInHundred(25)) {
      ASSERT_OK(db.large_objects().Vacuum(db.Now()).status());
    }
    ASSERT_OK_AND_ASSIGN(IntegrityReport report, CheckIntegrity(&db));
    ASSERT_TRUE(report.ok())
        << "round " << round << ": " << report.ToString();
    ASSERT_EQ(report.objects_checked, committed_objects.size())
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashIntegrityFuzz,
                         ::testing::Values(8, 88, 888, 8888));

TEST_F(CheckTest, BtreeCheckStructureOnHealthyTree) {
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 256);
  ASSERT_OK(Btree::Create(&pool, {0, 1}));
  Btree tree(&pool, {0, 1});
  Random rng(9);
  uint64_t inserted = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (tree.Insert(rng.Uniform(1'000'000), rng.Next()).ok()) ++inserted;
  }
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree.CheckStructure());
  EXPECT_EQ(entries, inserted);
}

TEST_F(CheckTest, BtreeCheckStructureCatchesTampering) {
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 256);
  ASSERT_OK(Btree::Create(&pool, {0, 1}));
  Btree tree(&pool, {0, 1});
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_OK(tree.Insert(k, k));
  }
  // Tamper: swap two keys inside a node image via raw page access.
  {
    ASSERT_OK_AND_ASSIGN(PageHandle handle, pool.GetPage({{0, 1}, 1}));
    // Overwrite the first leaf entry's key with a huge value.
    EncodeFixed64(handle.data() + 16, ~0ull);
    handle.MarkDirty();
  }
  EXPECT_FALSE(tree.CheckStructure().ok());
}

TEST_F(CheckTest, BtreeCheckStructureCatchesASkippedLeaf) {
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 256);
  ASSERT_OK(Btree::Create(&pool, {0, 1}));
  Btree tree(&pool, {0, 1});
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_OK(tree.Insert(k, k));
  }
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree.CheckStructure());
  ASSERT_EQ(entries, 2000u);
  // Tamper: link the leftmost leaf (block 1, the tree's first root) past
  // its right sibling. Every node still passes its own checks and the
  // chain stays sorted, but a walk along it skips a whole leaf.
  {
    ASSERT_OK_AND_ASSIGN(PageHandle first, pool.GetPage({{0, 1}, 1}));
    BtreeNode leaf(first.data());
    ASSERT_TRUE(leaf.is_leaf());
    ASSERT_OK_AND_ASSIGN(PageHandle second,
                         pool.GetPage({{0, 1}, leaf.right_sibling()}));
    leaf.set_right_sibling(BtreeNode(second.data()).right_sibling());
    first.MarkDirty();
  }
  Result<uint64_t> checked = tree.CheckStructure();
  EXPECT_TRUE(checked.status().IsCorruption())
      << (checked.ok() ? "OK with " + std::to_string(checked.value()) +
                             " entries"
                       : checked.status().ToString());
}

}  // namespace
}  // namespace pglo

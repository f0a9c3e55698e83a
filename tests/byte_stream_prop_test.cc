// Property-based differential testing of the byte-stream surface: seeded
// random operation sequences (random-offset writes, cursor writes, reads,
// seeks, truncates, appends) run against every large-object
// implementation and checked, byte for byte, against a std::vector
// oracle. On divergence the test prints the seed and the full op trace,
// so the failure replays with PGLO_TEST_SEED=<seed>.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "lo/byte_stream.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;
using pglo::testing::TestSeed;

constexpr uint64_t kMaxBytes = 48 * 1024;
constexpr uint32_t kNumOps = 120;

void RunDifferential(const char* label, LoSpec spec, uint64_t seed) {
  TempDir td;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  opts.charge_devices = false;
  Database db;
  ASSERT_OK(db.Open(opts));
  auto session = db.Connect();
  Transaction* txn = session->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db.large_objects().Instantiate(txn, oid));
  LoByteStream stream(lo.get(), txn);
  SeekableCursor cursor(&stream);

  Random rng(seed);
  Bytes oracle;
  std::vector<std::string> trace;
  auto fail = [&](const std::string& what) {
    std::string msg = "kind=" + std::string(label) + " seed=" +
                      std::to_string(seed) + ": " + what +
                      "\nreplay with PGLO_TEST_SEED=" + std::to_string(seed) +
                      "; op trace:";
    for (const std::string& t : trace) msg += "\n  " + t;
    return msg;
  };

  for (uint32_t i = 0; i < kNumOps; ++i) {
    uint64_t pick = rng.Uniform(100);
    const uint64_t size = oracle.size();
    if (pick < 30) {  // random-offset write through the object interface
      uint64_t off = rng.Uniform(size + 1);
      size_t len = static_cast<size_t>(rng.Range(1, 7000));
      if (off + len > kMaxBytes) len = static_cast<size_t>(kMaxBytes - off);
      if (len == 0) len = 1;
      Bytes data = rng.RandomBytes(len);
      trace.push_back("write off=" + std::to_string(off) +
                      " len=" + std::to_string(len));
      Status s = lo->Write(txn, off, Slice(data));
      if (!s.ok()) { ADD_FAILURE() << fail(s.ToString()); return; }
      if (off + len > oracle.size()) oracle.resize(off + len);
      std::copy(data.begin(), data.end(),
                oracle.begin() + static_cast<ptrdiff_t>(off));
    } else if (pick < 45) {  // seek + write through the cursor
      uint64_t off = rng.Uniform(size + 1);
      size_t len = static_cast<size_t>(rng.Range(1, 5000));
      if (off + len > kMaxBytes) len = static_cast<size_t>(kMaxBytes - off);
      if (len == 0) len = 1;
      Bytes data = rng.RandomBytes(len);
      trace.push_back("cursor-write off=" + std::to_string(off) +
                      " len=" + std::to_string(len));
      Result<uint64_t> at = cursor.Seek(static_cast<int64_t>(off),
                                        Whence::kSet);
      if (!at.ok()) { ADD_FAILURE() << fail(at.status().ToString()); return; }
      Status s = cursor.Write(Slice(data));
      if (!s.ok()) { ADD_FAILURE() << fail(s.ToString()); return; }
      if (cursor.Tell() != off + len) {
        ADD_FAILURE() << fail("cursor at " + std::to_string(cursor.Tell()) +
                              " after write, want " +
                              std::to_string(off + len));
        return;
      }
      if (off + len > oracle.size()) oracle.resize(off + len);
      std::copy(data.begin(), data.end(),
                oracle.begin() + static_cast<ptrdiff_t>(off));
    } else if (pick < 60) {  // random-offset read
      uint64_t off = rng.Uniform(size + 1);
      size_t len = static_cast<size_t>(rng.Range(1, 9000));
      trace.push_back("read off=" + std::to_string(off) +
                      " len=" + std::to_string(len));
      Bytes buf(len);
      Result<size_t> n = lo->Read(txn, off, len, buf.data());
      if (!n.ok()) { ADD_FAILURE() << fail(n.status().ToString()); return; }
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(len, size - off));
      if (n.value() != want) {
        ADD_FAILURE() << fail("read returned " + std::to_string(n.value()) +
                              " bytes, oracle says " + std::to_string(want));
        return;
      }
      if (!std::equal(buf.begin(), buf.begin() + want,
                      oracle.begin() + static_cast<ptrdiff_t>(off))) {
        ADD_FAILURE() << fail("read content diverged from oracle");
        return;
      }
    } else if (pick < 70) {  // seek + sequential read through the cursor
      uint64_t off = rng.Uniform(size + 1);
      size_t len = static_cast<size_t>(rng.Range(1, 6000));
      trace.push_back("cursor-read off=" + std::to_string(off) +
                      " len=" + std::to_string(len));
      Result<uint64_t> at = cursor.Seek(static_cast<int64_t>(off),
                                        Whence::kSet);
      if (!at.ok()) { ADD_FAILURE() << fail(at.status().ToString()); return; }
      Result<Bytes> got = cursor.Read(len);
      if (!got.ok()) { ADD_FAILURE() << fail(got.status().ToString()); return; }
      size_t want = static_cast<size_t>(
          std::min<uint64_t>(len, size - off));
      if (got.value().size() != want ||
          !std::equal(got.value().begin(), got.value().end(),
                      oracle.begin() + static_cast<ptrdiff_t>(off))) {
        ADD_FAILURE() << fail("cursor read diverged from oracle");
        return;
      }
    } else if (pick < 85) {  // truncate to a random smaller size
      uint64_t nsize = rng.Uniform(size + 1);
      trace.push_back("truncate to=" + std::to_string(nsize));
      Status s = lo->Truncate(txn, nsize);
      if (!s.ok()) { ADD_FAILURE() << fail(s.ToString()); return; }
      oracle.resize(nsize);
    } else {  // append
      size_t len = static_cast<size_t>(rng.Range(1, 5000));
      if (size + len > kMaxBytes) {
        len = static_cast<size_t>(kMaxBytes - size);
      }
      if (len == 0) continue;
      Bytes data = rng.RandomBytes(len);
      trace.push_back("append off=" + std::to_string(size) +
                      " len=" + std::to_string(len));
      Status s = lo->Write(txn, size, Slice(data));
      if (!s.ok()) { ADD_FAILURE() << fail(s.ToString()); return; }
      oracle.insert(oracle.end(), data.begin(), data.end());
    }
    if (i % 10 == 9) {  // periodic size invariant
      Result<uint64_t> sz = lo->Size(txn);
      if (!sz.ok()) { ADD_FAILURE() << fail(sz.status().ToString()); return; }
      if (sz.value() != oracle.size()) {
        ADD_FAILURE() << fail("size " + std::to_string(sz.value()) +
                              " != oracle " + std::to_string(oracle.size()));
        return;
      }
    }
  }

  // Full-image comparison, then once more after commit in a fresh
  // transaction (visibility across the commit boundary).
  auto compare_all = [&](Transaction* t) {
    Bytes buf(oracle.size());
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> check,
                         db.large_objects().Instantiate(t, oid));
    if (!oracle.empty()) {
      ASSERT_OK_AND_ASSIGN(
          size_t n, check->Read(t, 0, buf.size(), buf.data()));
      ASSERT_EQ(n, buf.size()) << fail("final read short");
    }
    EXPECT_EQ(buf, oracle) << fail("final image diverged");
  };
  compare_all(txn);
  lo.reset();
  ASSERT_OK(session->Commit().status());
  Transaction* probe = session->Begin();
  compare_all(probe);
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST(ByteStreamPropertyTest, FChunkDisk) {
  LoSpec spec;
  spec.kind = StorageKind::kFChunk;
  spec.smgr = kSmgrDisk;
  RunDifferential("fchunk/disk", spec, TestSeed());
}

TEST(ByteStreamPropertyTest, FChunkWorm) {
  LoSpec spec;
  spec.kind = StorageKind::kFChunk;
  spec.smgr = kSmgrWorm;
  RunDifferential("fchunk/worm", spec, TestSeed());
}

TEST(ByteStreamPropertyTest, VSegmentDiskRle) {
  LoSpec spec;
  spec.kind = StorageKind::kVSegment;
  spec.smgr = kSmgrDisk;
  spec.codec = "rle";
  RunDifferential("vsegment/disk+rle", spec, TestSeed());
}

TEST(ByteStreamPropertyTest, VSegmentWormLzss) {
  LoSpec spec;
  spec.kind = StorageKind::kVSegment;
  spec.smgr = kSmgrWorm;
  spec.codec = "lzss";
  RunDifferential("vsegment/worm+lzss", spec, TestSeed());
}

TEST(ByteStreamPropertyTest, UserFile) {
  LoSpec spec;
  spec.kind = StorageKind::kUserFile;
  spec.ufile_path = "prop_u.dat";
  RunDifferential("ufile", spec, TestSeed());
}

TEST(ByteStreamPropertyTest, PostgresFile) {
  LoSpec spec;
  spec.kind = StorageKind::kPostgresFile;
  RunDifferential("pfile", spec, TestSeed());
}

// Distinct fixed seeds widen coverage beyond the default; each failure
// message names the seed it replays with.
TEST(ByteStreamPropertyTest, FChunkDiskMoreSeeds) {
  for (uint64_t seed : {7ull, 1234ull, 4242ull}) {
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    spec.smgr = kSmgrDisk;
    RunDifferential("fchunk/disk", spec, seed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(ByteStreamPropertyTest, VSegmentRleMoreSeeds) {
  for (uint64_t seed : {7ull, 1234ull, 4242ull}) {
    LoSpec spec;
    spec.kind = StorageKind::kVSegment;
    spec.smgr = kSmgrDisk;
    spec.codec = "rle";
    RunDifferential("vsegment/disk+rle", spec, seed);
    if (::testing::Test::HasFailure()) return;
  }
}

}  // namespace
}  // namespace pglo

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/random.h"
#include "db/database.h"
#include "lo/indexed_class.h"
#include "lo/ufile_lo.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

struct LoCase {
  const char* name;
  StorageKind kind;
  const char* codec;
};

std::ostream& operator<<(std::ostream& os, const LoCase& c) {
  return os << c.name;
}

class LoTest : public ::testing::TestWithParam<LoCase> {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 128;
    ASSERT_OK(db_.Open(options));
    session_ = db_.Connect();
  }

  LoSpec SpecForParam(const std::string& ufile_path = "") {
    LoSpec spec;
    spec.kind = GetParam().kind;
    spec.codec = GetParam().codec;
    if (spec.kind == StorageKind::kUserFile) {
      spec.ufile_path =
          ufile_path.empty() ? "ufile_" + std::to_string(++ufile_counter_)
                             : ufile_path;
    }
    return spec;
  }

  /// True if this implementation provides transaction semantics (the file
  /// implementations do not — §6.1: "the database cannot guarantee
  /// transaction semantics for any query using a large object").
  bool transactional() const {
    return GetParam().kind == StorageKind::kFChunk ||
           GetParam().kind == StorageKind::kVSegment;
  }

  TempDir dir_;
  Database db_;
  std::unique_ptr<Session> session_;
  int ufile_counter_ = 0;
};

TEST_P(LoTest, CreateOpenWriteReadClose) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, /*writable=*/true));
  ASSERT_OK(fd->Write(Slice("hello large object world")));
  ASSERT_OK_AND_ASSIGN(uint64_t pos, fd->Seek(0, Whence::kSet));
  EXPECT_EQ(pos, 0u);
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(1024));
  EXPECT_EQ(Slice(data).ToString(), "hello large object world");
  ASSERT_OK(db_.large_objects().Close(fd));
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, SeekSemantics) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(fd->Write(Slice("0123456789")));
  // kSet / kCur / kEnd.
  ASSERT_OK_AND_ASSIGN(uint64_t pos, fd->Seek(4, Whence::kSet));
  EXPECT_EQ(pos, 4u);
  ASSERT_OK_AND_ASSIGN(pos, fd->Seek(2, Whence::kCur));
  EXPECT_EQ(pos, 6u);
  ASSERT_OK_AND_ASSIGN(pos, fd->Seek(-3, Whence::kEnd));
  EXPECT_EQ(pos, 7u);
  ASSERT_OK_AND_ASSIGN(Bytes tail, fd->Read(100));
  EXPECT_EQ(Slice(tail).ToString(), "789");
  EXPECT_TRUE(fd->Seek(-1, Whence::kSet).status().IsInvalidArgument());
  // An offset whose sum with the origin overflows is refused, not wrapped.
  EXPECT_TRUE(fd->Seek(std::numeric_limits<int64_t>::max(), Whence::kEnd)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(fd->Tell(), 10u);
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, ByteRangeAccessWithoutFullBuffering) {
  // §4: "The application need not buffer the entire object; it can manage
  // only the bytes it actually needs at one time."
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  // 100 KB object written in 10 KB strides.
  Random rng(42);
  Bytes all = rng.RandomBytes(100 * 1024);
  for (size_t off = 0; off < all.size(); off += 10 * 1024) {
    ASSERT_OK(fd->Seek(static_cast<int64_t>(off), Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice(all).Sub(off, 10 * 1024)));
  }
  // Read an unaligned 1000-byte range in the middle.
  ASSERT_OK(fd->Seek(54321, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes got, fd->Read(1000));
  EXPECT_EQ(Slice(got), Slice(all).Sub(54321, 1000));
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, SizeTracksWrites) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK_AND_ASSIGN(uint64_t size, fd->Size());
  EXPECT_EQ(size, 0u);
  ASSERT_OK(fd->Write(Slice("abc")));
  ASSERT_OK_AND_ASSIGN(size, fd->Size());
  EXPECT_EQ(size, 3u);
  // Overwrite in place does not grow.
  ASSERT_OK(fd->Seek(0, Whence::kSet).status());
  ASSERT_OK(fd->Write(Slice("xyz")));
  ASSERT_OK_AND_ASSIGN(size, fd->Size());
  EXPECT_EQ(size, 3u);
  // Write past end grows.
  ASSERT_OK(fd->Seek(100, Whence::kSet).status());
  ASSERT_OK(fd->Write(Slice("tail")));
  ASSERT_OK_AND_ASSIGN(size, fd->Size());
  EXPECT_EQ(size, 104u);
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, GapsReadAsZeros) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(fd->Seek(50'000, Whence::kSet).status());
  ASSERT_OK(fd->Write(Slice("end")));
  ASSERT_OK(fd->Seek(25'000, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes gap, fd->Read(100));
  ASSERT_EQ(gap.size(), 100u);
  for (uint8_t b : gap) EXPECT_EQ(b, 0);
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, TruncateShrinks) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  Random rng(3);
  Bytes data = rng.RandomBytes(40'000);
  ASSERT_OK(fd->Write(Slice(data)));
  ASSERT_OK(fd->Truncate(10'000));
  ASSERT_OK_AND_ASSIGN(uint64_t size, fd->Size());
  EXPECT_EQ(size, 10'000u);
  ASSERT_OK(fd->Seek(0, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes got, fd->Read(100'000));
  ASSERT_EQ(got.size(), 10'000u);
  EXPECT_EQ(Slice(got), Slice(data).Sub(0, 10'000));
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, ReadOnlyDescriptorRejectsWrites) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, /*writable=*/false));
  EXPECT_TRUE(fd->Write(Slice("nope")).IsPermissionDenied());
  EXPECT_TRUE(fd->Truncate(0).IsPermissionDenied());
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, PersistsAcrossTransactions) {
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, SpecForParam()));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("durable")));
    ASSERT_OK(session_->Commit().status());
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "durable");
  ASSERT_OK(session_->Abort());
}

TEST_P(LoTest, UnlinkRemovesObject) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK(session_->Commit().status());
  txn = session_->Begin();
  ASSERT_OK(db_.large_objects().Unlink(txn, oid));
  ASSERT_OK(session_->Commit().status());
  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, db_.large_objects().Exists(txn, oid));
  EXPECT_FALSE(exists);
  EXPECT_TRUE(db_.large_objects().Open(txn, oid, false).status().IsNotFound());
  ASSERT_OK(session_->Abort());
}

TEST_P(LoTest, AbortSemantics) {
  // Transactional implementations roll writes back; the file
  // implementations (u-file, p-file) demonstrably do NOT — the drawback
  // §6.1 calls out.
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, SpecForParam()));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("committed")));
    ASSERT_OK(session_->Commit().status());
  }
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("OVERWRITE")));
    ASSERT_OK(session_->Abort());
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  if (transactional()) {
    EXPECT_EQ(Slice(data).ToString(), "committed");
  } else {
    EXPECT_EQ(Slice(data).ToString(), "OVERWRITE");  // no rollback
  }
  ASSERT_OK(session_->Abort());
}

TEST_P(LoTest, UncommittedWritesInvisibleToOthers) {
  if (!transactional()) GTEST_SKIP() << "file implementations are unprotected";
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, SpecForParam()));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("public")));
    ASSERT_OK(session_->Commit().status());
  }
  Transaction* writer = session_->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * wfd,
                       db_.large_objects().Open(writer, oid, true));
  ASSERT_OK(wfd->Seek(0, Whence::kSet).status());
  ASSERT_OK(wfd->Write(Slice("SECRET")));

  auto reader_session = db_.Connect();
  Transaction* reader = reader_session->Begin();
  ASSERT_OK_AND_ASSIGN(LoDescriptor * rfd,
                       db_.large_objects().Open(reader, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, rfd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "public");
  ASSERT_OK(reader_session->Abort());
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, TimeTravelReadsOldContents) {
  if (!transactional()) GTEST_SKIP() << "no time travel for file kinds";
  Oid oid;
  CommitTime version1;
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, SpecForParam()));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Write(Slice("version one")));
    ASSERT_OK_AND_ASSIGN(version1, session_->Commit());
  }
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, oid, true));
    ASSERT_OK(fd->Seek(0, Whence::kSet).status());
    ASSERT_OK(fd->Write(Slice("version TWO")));
    ASSERT_OK(session_->Commit().status());
  }
  // Historical snapshot sees the old bytes (§6.3/§6.4 time travel).
  Transaction* historical = session_->BeginAsOf(version1);
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(historical, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "version one");
  ASSERT_OK(session_->Abort());
  // Current snapshot sees the new bytes.
  Transaction* current = session_->Begin();
  ASSERT_OK_AND_ASSIGN(fd, db_.large_objects().Open(current, oid, false));
  ASSERT_OK_AND_ASSIGN(data, fd->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "version TWO");
  ASSERT_OK(session_->Abort());
}

TEST_P(LoTest, SecondDescriptorWritesVisibleToFirst) {
  // Two descriptors on one object in one transaction are two views of the
  // same bytes: a write through one is read back through the other.
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * a,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(a->Write(Slice("0123456789")));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * b,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(b->Write(Slice("abcdefghijklmnopqrst")));
  ASSERT_OK(a->Seek(0, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes got, a->Read(64));
  EXPECT_EQ(Slice(got).ToString(), "abcdefghijklmnopqrst");
  ASSERT_OK_AND_ASSIGN(uint64_t end, a->Seek(0, Whence::kEnd));
  EXPECT_EQ(end, 20u);
  ASSERT_OK(session_->Commit().status());
}

TEST_P(LoTest, RandomOpFuzzAgainstReference) {
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, SpecForParam()));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db_.large_objects().Instantiate(txn, oid));
  Random rng(GetParam().kind == StorageKind::kFChunk ? 101 : 202);
  Bytes model;
  constexpr uint64_t kMaxSize = 200 * 1024;
  for (int step = 0; step < 150; ++step) {
    uint64_t off = rng.Uniform(kMaxSize);
    size_t len = static_cast<size_t>(rng.Range(1, 16'000));
    if (rng.OneInHundred(55)) {
      if (off + len > kMaxSize) len = static_cast<size_t>(kMaxSize - off);
      Bytes data = rng.RandomBytes(len);
      ASSERT_OK(lo->Write(txn, off, Slice(data)));
      if (model.size() < off + len) model.resize(off + len, 0);
      std::memcpy(model.data() + off, data.data(), len);
    } else if (rng.OneInHundred(10) && !model.empty()) {
      uint64_t new_size = rng.Uniform(model.size() + 1);
      ASSERT_OK(lo->Truncate(txn, new_size));
      model.resize(new_size);
    } else {
      Bytes got(len);
      ASSERT_OK_AND_ASSIGN(size_t n, lo->Read(txn, off, len, got.data()));
      size_t expect_n = off >= model.size()
                            ? 0
                            : std::min<size_t>(len, model.size() - off);
      ASSERT_EQ(n, expect_n) << "step " << step << " off " << off;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], model[off + i])
            << "step " << step << " off " << off << " i " << i;
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(uint64_t size, lo->Size(txn));
  EXPECT_EQ(size, model.size());
  ASSERT_OK(session_->Commit().status());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, LoTest,
    ::testing::Values(LoCase{"ufile", StorageKind::kUserFile, ""},
                      LoCase{"pfile", StorageKind::kPostgresFile, ""},
                      LoCase{"fchunk", StorageKind::kFChunk, ""},
                      LoCase{"fchunk_rle", StorageKind::kFChunk, "rle"},
                      LoCase{"fchunk_lzss", StorageKind::kFChunk, "lzss"},
                      LoCase{"vsegment", StorageKind::kVSegment, ""},
                      LoCase{"vsegment_rle", StorageKind::kVSegment, "rle"},
                      LoCase{"vsegment_lzss", StorageKind::kVSegment,
                             "lzss"}),
    [](const ::testing::TestParamInfo<LoCase>& info) {
      return std::string(info.param.name);
    });

// -- non-parameterized LO manager behaviour ------------------------------

class LoManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    ASSERT_OK(db_.Open(options));
    session_ = db_.Connect();
  }
  TempDir dir_;
  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(LoManagerTest, TemporaryObjectsGarbageCollected) {
  // §5: "Temporary large objects must be garbage-collected ... after the
  // query has completed."
  Oid temp_oid;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    ASSERT_OK_AND_ASSIGN(temp_oid, db_.large_objects().CreateTemp(txn, spec));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                         db_.large_objects().Open(txn, temp_oid, true));
    ASSERT_OK(fd->Write(Slice("scratch")));
    ASSERT_OK(session_->Commit().status());  // commit triggers GC
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, db_.large_objects().Exists(txn, temp_oid));
  EXPECT_FALSE(exists);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, PromotedTemporarySurvives) {
  Oid temp_oid;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    ASSERT_OK_AND_ASSIGN(temp_oid, db_.large_objects().CreateTemp(txn, spec));
    ASSERT_OK(db_.large_objects().Promote(txn, temp_oid));
    ASSERT_OK(session_->Commit().status());
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, db_.large_objects().Exists(txn, temp_oid));
  EXPECT_TRUE(exists);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, AbortedCreateLeavesNoObject) {
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, spec));
    ASSERT_OK(session_->Abort());
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, db_.large_objects().Exists(txn, oid));
  EXPECT_FALSE(exists);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, DescriptorsCloseAtTransactionEnd) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(session_->Commit().status());
  // Closing an already-auto-closed descriptor is an error, not a crash.
  EXPECT_TRUE(db_.large_objects().Close(fd).IsInvalidArgument());
}

TEST_F(LoManagerTest, TimeTravelTxnCannotOpenForWrite) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(CommitTime t, session_->Commit());
  Transaction* historical = session_->BeginAsOf(t);
  EXPECT_TRUE(db_.large_objects()
                  .Open(historical, oid, /*writable=*/true)
                  .status()
                  .IsPermissionDenied());
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, UfileRequiresPath) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kUserFile;
  EXPECT_TRUE(
      db_.large_objects().Create(txn, spec).status().IsInvalidArgument());
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, PfileGetsDbmsAllocatedName) {
  // §6.2: "the user must call the function newfilename in order to have
  // POSTGRES perform the allocation."
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kPostgresFile;
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, spec));
  ASSERT_OK(session_->Commit().status());
  // The DBMS-owned file exists in the UNIX file system under its name.
  ASSERT_OK(db_.ufs().Lookup(LoManager::NewFileName(oid)).status());
}

TEST_F(LoManagerTest, UnknownCodecRejected) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.codec = "no-such-codec";
  EXPECT_TRUE(db_.large_objects().Create(txn, spec).status().IsNotFound());
  ASSERT_OK(session_->Abort());
}

// §4: "A function can be written and debugged using files, and then moved
// into the database where it can manage large objects without being
// rewritten." The same checksum function body runs against a UNIX file
// and against each large-object implementation, producing identical
// results, while only ever holding 4 KB in memory. The portable surface
// is LargeObject; the UNIX file is a u-file over a plain file in the
// simulated file system, outside the LO catalog.
TEST_F(LoManagerTest, FunctionsPortBetweenFilesAndLargeObjects) {
  Random rng(2024);
  Bytes data = rng.RandomBytes(150'000);

  auto checksum = [](LargeObject* lo, Transaction* txn) -> Result<uint64_t> {
    uint64_t sum = 14695981039346656037ull;
    PGLO_ASSIGN_OR_RETURN(
        uint64_t seen,
        ForEachPiece(lo, txn, 4096,
                     [&](uint64_t, Slice piece) -> Status {
                       for (size_t i = 0; i < piece.size(); ++i) {
                         sum = (sum ^ piece[i]) * 1099511628211ull;
                       }
                       return Status::OK();
                     }));
    (void)seen;
    return sum;
  };

  // Debugged against a plain file first...
  ASSERT_OK_AND_ASSIGN(uint32_t ino, db_.ufs().Create("debug_input"));
  ASSERT_OK(db_.ufs().WriteAt(ino, 0, Slice(data)));
  UfileLo file(db_.context(), "debug_input", StorageKind::kUserFile);
  ASSERT_OK_AND_ASSIGN(uint64_t file_sum, checksum(&file, nullptr));

  // ...then run unmodified against every DBMS implementation.
  for (StorageKind kind : {StorageKind::kFChunk, StorageKind::kVSegment}) {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    spec.kind = kind;
    spec.codec = "lzss";
    ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK(lo->Write(txn, 0, Slice(data)));
    ASSERT_OK_AND_ASSIGN(uint64_t lo_sum, checksum(lo.get(), txn));
    EXPECT_EQ(lo_sum, file_sum) << static_cast<int>(kind);
    ASSERT_OK(session_->Commit().status());
  }
}

Bytes MakeRunFrame(uint64_t i) {
  // Highly compressible content: one long run with a distinct stamp.
  return Bytes(4096, static_cast<uint8_t>(i));
}

TEST_F(LoManagerTest, MigrateBetweenStorageManagers) {
  // [OLSO91]: demote to the jukebox, promote back — the object keeps its
  // name and contents across devices.
  Random rng(17);
  Bytes contents = rng.RandomBytes(60'000);
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;  // f-chunk on disk
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK(lo->Write(txn, 0, Slice(contents)));
    ASSERT_OK(session_->Commit().status());
  }
  auto verify = [&]() {
    Transaction* txn = session_->Begin();
    auto lo = db_.large_objects().Instantiate(txn, oid);
    ASSERT_OK(lo.status());
    Bytes got(contents.size());
    auto n = lo.value()->Read(txn, 0, got.size(), got.data());
    ASSERT_OK(n.status());
    ASSERT_EQ(n.value(), contents.size());
    EXPECT_EQ(got, contents);
    ASSERT_OK(session_->Abort());
  };
  // Disk -> WORM.
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(db_.large_objects().Migrate(txn, oid, kSmgrWorm));
    ASSERT_OK(session_->Commit().status());
  }
  verify();
  EXPECT_GT(db_.Stats().Value("smgr.worm.optical_writes"), 0u);
  // WORM -> main memory.
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(db_.large_objects().Migrate(txn, oid, kSmgrMemory));
    ASSERT_OK(session_->Commit().status());
  }
  verify();
  // An aborted migration leaves the object where it was.
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(db_.large_objects().Migrate(txn, oid, kSmgrDisk));
    ASSERT_OK(session_->Abort());
  }
  verify();
  // Same-device migration is a no-op; unknown slot is an error.
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(db_.large_objects().Migrate(txn, oid, kSmgrMemory));
    EXPECT_TRUE(db_.large_objects().Migrate(txn, oid, 13).IsNotFound());
    ASSERT_OK(session_->Abort());
  }
}

TEST_F(LoManagerTest, LiveHandlesShareAnAccessorThatDiesWithTheLast) {
  // Handles alive at the same time share one accessor. It is freed with
  // the last of them rather than kept until the transaction ends, so a
  // transaction that visits every object (fsck) holds one at a time.
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, LoSpec{}));
  std::weak_ptr<LargeObject> shared;
  {
    ASSERT_OK_AND_ASSIGN(auto a, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK_AND_ASSIGN(auto b, db_.large_objects().Instantiate(txn, oid));
    EXPECT_EQ(a, b);
    ASSERT_OK(a->Write(txn, 0, Slice("kept")));
    shared = a;
  }
  EXPECT_TRUE(shared.expired());
  ASSERT_OK_AND_ASSIGN(auto c, db_.large_objects().Instantiate(txn, oid));
  Bytes got(4);
  ASSERT_OK_AND_ASSIGN(size_t n, c->Read(txn, 0, got.size(), got.data()));
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(Slice(got).ToString(), "kept");
  ASSERT_OK(session_->Commit().status());
}

TEST_F(LoManagerTest, HandlesOpenedAfterMigrateUseTheNewStorage) {
  // Live handles share one accessor per object; a migration must retire
  // it, or later writes in the transaction would land in the storage that
  // commit reclaims.
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, LoSpec{}));
  ASSERT_OK_AND_ASSIGN(LoDescriptor * fd,
                       db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(fd->Write(Slice("before")));
  ASSERT_OK(db_.large_objects().Migrate(txn, oid, kSmgrMemory));
  ASSERT_OK_AND_ASSIGN(fd, db_.large_objects().Open(txn, oid, true));
  ASSERT_OK(fd->Seek(0, Whence::kEnd).status());
  ASSERT_OK(fd->Write(Slice(" after")));
  ASSERT_OK(session_->Commit().status());

  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(fd, db_.large_objects().Open(txn, oid, false));
  ASSERT_OK_AND_ASSIGN(Bytes got, fd->Read(64));
  EXPECT_EQ(Slice(got).ToString(), "before after");
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, MigrateRejectsFileKinds) {
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kPostgresFile;
  ASSERT_OK_AND_ASSIGN(Oid oid, db_.large_objects().Create(txn, spec));
  EXPECT_TRUE(
      db_.large_objects().Migrate(txn, oid, kSmgrWorm).IsNotSupported());
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, VacuumReclaimsReplacedVersions) {
  // Build an object, replace it across several transactions, then vacuum
  // away the history: dead versions are physically removed.
  Oid oid;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    Bytes data(50'000, 1);
    ASSERT_OK(lo->Write(txn, 0, Slice(data)));
    ASSERT_OK(session_->Commit().status());
  }
  for (int round = 0; round < 3; ++round) {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    Bytes data(50'000, static_cast<uint8_t>(round + 2));
    ASSERT_OK(lo->Write(txn, 0, Slice(data)));
    ASSERT_OK(session_->Commit().status());
  }
  CommitTime now = db_.Now();
  ASSERT_OK_AND_ASSIGN(uint64_t removed, db_.large_objects().Vacuum(now));
  // 3 replacement rounds × 7 chunks each (plus size-record churn).
  EXPECT_GE(removed, 21u);
  // The object still reads its latest contents.
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
  Bytes buf(16);
  ASSERT_OK(lo->Read(txn, 0, 16, buf.data()).status());
  EXPECT_EQ(buf[0], 4);
  ASSERT_OK(session_->Abort());
  // A second vacuum finds nothing more to do.
  ASSERT_OK_AND_ASSIGN(removed, db_.large_objects().Vacuum(now));
  EXPECT_EQ(removed, 0u);
}

TEST_F(LoManagerTest, VacuumWithZeroHorizonPreservesTimeTravel) {
  Oid oid;
  CommitTime v1;
  {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    ASSERT_OK_AND_ASSIGN(oid, db_.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK(lo->Write(txn, 0, Slice("version one")));
    ASSERT_OK_AND_ASSIGN(v1, session_->Commit());
  }
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK(lo->Write(txn, 0, Slice("version TWO")));
    ASSERT_OK(session_->Commit().status());
  }
  // Horizon 0: only aborted garbage goes; history stays readable.
  ASSERT_OK(db_.large_objects().Vacuum(0).status());
  Transaction* historical = session_->BeginAsOf(v1);
  ASSERT_OK_AND_ASSIGN(auto lo,
                       db_.large_objects().Instantiate(historical, oid));
  Bytes buf(11);
  ASSERT_OK(lo->Read(historical, 0, 11, buf.data()).status());
  EXPECT_EQ(Slice(buf).ToString(), "version one");
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, VacuumEndsItsCatalogReadWhenARowDoesNotDecode) {
  // A two-byte row in the LO catalog (relation file 10 on the disk
  // storage manager) fails Vacuum's catalog read, which must still end
  // the transaction it read under.
  {
    Transaction* txn = session_->Begin();
    HeapClass catalog(&db_.pool(), RelFileId{kSmgrDisk, 10});
    ASSERT_OK(catalog.Insert(txn, Slice("xy")).status());
    ASSERT_OK(session_->Commit().status());
  }
  Status vacuumed = db_.large_objects().Vacuum(0).status();
  EXPECT_TRUE(vacuumed.IsCorruption()) << vacuumed.ToString();
  EXPECT_EQ(db_.txns().active_count(), 0u);
}

TEST_F(LoManagerTest, OpenAccessesEachCatalogPageOnce) {
  // 100 f-chunk objects on the main-memory storage manager, so they hold
  // no host descriptors; opening the last one walks every catalog row,
  // but pins each catalog page only once.
  LoSpec spec;
  spec.smgr = kSmgrMemory;
  Oid last = kInvalidOid;
  session_->Begin();
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(last, session_->CreateLo(spec));
  }
  ASSERT_OK(session_->Commit().status());
  session_->Begin();
  uint64_t before = db_.Stats().Value("bufpool.hits");
  ASSERT_OK(session_->OpenLo(last, /*writable=*/false).status());
  EXPECT_LE(db_.Stats().Value("bufpool.hits") - before, 10u);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, FootprintReflectsCompression) {
  // A compressible object stored with the strong codec occupies roughly
  // half the chunk storage of its uncompressed twin (Figure 1's
  // mechanism).
  auto create_and_fill = [&](const std::string& codec) -> Oid {
    Transaction* txn = session_->Begin();
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    spec.codec = codec;
    Oid oid = db_.large_objects().Create(txn, spec).value();
    auto lo = db_.large_objects().Instantiate(txn, oid).value();
    for (uint64_t i = 0; i < 64; ++i) {
      Bytes frame = MakeRunFrame(i);
      EXPECT_OK(lo->Write(txn, i * frame.size(), Slice(frame)));
    }
    EXPECT_OK(session_->Commit().status());
    return oid;
  };
  Oid plain = create_and_fill("");
  Oid squeezed = create_and_fill("lzss");
  Transaction* txn = session_->Begin();
  auto fp_plain = db_.large_objects().Footprint(txn, plain).value();
  auto fp_squeezed = db_.large_objects().Footprint(txn, squeezed).value();
  EXPECT_LT(fp_squeezed.data_bytes, fp_plain.data_bytes * 3 / 4);
  ASSERT_OK(session_->Abort());
}

TEST(LoStatsTest, SequentialReadReportsExpectedCounterDeltas) {
  // A cold sequential scan of N frames must show up, layer by layer, in the
  // observability registry: N f-chunk reads of frame-size bytes at the top,
  // buffer-pool misses and disk storage-manager block reads underneath.
  constexpr uint64_t kFrames = 8;
  constexpr uint64_t kFrameBytes = 4096;
  testing::TempDir dir;
  DatabaseOptions options;
  options.dir = dir.Sub("db");
  options.charge_devices = false;
  Database db;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();

  Oid oid;
  {
    Transaction* txn = session->Begin();
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    auto created = db.large_objects().Create(txn, spec);
    ASSERT_OK(created.status());
    oid = *created;
    auto lo = db.large_objects().Instantiate(txn, oid);
    ASSERT_OK(lo.status());
    for (uint64_t f = 0; f < kFrames; ++f) {
      Bytes frame(kFrameBytes, static_cast<uint8_t>('a' + f));
      ASSERT_OK((*lo)->Write(txn, f * kFrameBytes, Slice(frame)));
    }
    ASSERT_OK(session->Commit().status());
  }

  // Reopen: fresh registry, cold buffer pool, so the read path's physical
  // work is attributable to the scan alone.
  ASSERT_OK(db.Close());
  ASSERT_OK(db.Open(options));
  {
    Transaction* txn = session->Begin();
    auto lo = db.large_objects().Instantiate(txn, oid);
    ASSERT_OK(lo.status());
    Bytes buf(kFrameBytes);
    for (uint64_t f = 0; f < kFrames; ++f) {
      auto got = (*lo)->Read(txn, f * kFrameBytes, kFrameBytes, buf.data());
      ASSERT_OK(got.status());
      EXPECT_EQ(*got, kFrameBytes);
      EXPECT_EQ(buf[0], static_cast<uint8_t>('a' + f));
    }
    ASSERT_OK(session->Abort());
  }

  StatsSnapshot snap = db.Stats();
  EXPECT_EQ(snap.Value("lo.fchunk.reads"), kFrames);
  EXPECT_EQ(snap.Value("lo.fchunk.bytes_read"), kFrames * kFrameBytes);
  EXPECT_EQ(snap.Value("lo.fchunk.writes"), 0u);
  // The cold scan had to fault pages in and fetch blocks from disk.
  EXPECT_GT(snap.Value("bufpool.misses"), 0u);
  EXPECT_GT(snap.Value("smgr.disk.blocks_read"), 0u);
  // The read path's latency histogram saw every frame.
  uint64_t read_spans = 0;
  for (const auto& h : snap.histograms) {
    if (h.name == "lo.fchunk.read_ns") read_spans = h.count;
  }
  EXPECT_EQ(read_spans, kFrames);
  ASSERT_OK(db.Close());
}

constexpr uint64_t kSegmentBytes = 65536;

TEST(LoStatsTest, ColdVSegmentFrameReadsMoveOnlyRawFrameBytes) {
  // A raw segment is a plain byte range of the v-segment byte store, so a
  // cold 4 KiB frame read moves exactly that frame through the store. A
  // compressed segment can only be decoded whole, so every frame read of
  // one moves its whole stored segment.
  constexpr uint64_t kSegments = 2;
  constexpr uint64_t kFrameBytes = 4096;
  constexpr uint64_t kFrames = kSegments * kSegmentBytes / kFrameBytes;
  for (const char* codec : {"", "rle"}) {
    SCOPED_TRACE(std::string("codec '") + codec + "'");
    testing::TempDir dir;
    DatabaseOptions options;
    options.dir = dir.Sub("db");
    options.charge_devices = false;
    Database db;
    ASSERT_OK(db.Open(options));
    auto session = db.Connect();
    Oid oid;
    {
      Transaction* txn = session->Begin();
      LoSpec spec;
      spec.kind = StorageKind::kVSegment;
      spec.codec = codec;
      ASSERT_OK_AND_ASSIGN(oid, db.large_objects().Create(txn, spec));
      ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, oid));
      // One 64 KiB write per segment; each frame is a run of one byte
      // value, which rle shrinks to the same size in every segment.
      for (uint64_t s = 0; s < kSegments; ++s) {
        Bytes segment(kSegmentBytes);
        for (uint64_t i = 0; i < kSegmentBytes; ++i) {
          segment[i] =
              static_cast<uint8_t>((s * kSegmentBytes + i) / kFrameBytes);
        }
        ASSERT_OK(lo->Write(txn, s * kSegmentBytes, Slice(segment)));
      }
      ASSERT_OK(session->Commit().status());
    }
    uint64_t stored = db.Stats().Value("lo.vseg.store.bytes_written");

    // Reopen for a fresh registry and a cold buffer pool.
    ASSERT_OK(db.Close());
    ASSERT_OK(db.Open(options));
    {
      Transaction* txn = session->Begin();
      ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, oid));
      Bytes buf(kFrameBytes);
      for (uint64_t f = 0; f < kFrames; ++f) {
        ASSERT_OK_AND_ASSIGN(size_t n, lo->Read(txn, f * kFrameBytes,
                                                kFrameBytes, buf.data()));
        ASSERT_EQ(n, kFrameBytes);
        EXPECT_EQ(buf.front(), static_cast<uint8_t>(f));
        EXPECT_EQ(buf.back(), static_cast<uint8_t>(f));
      }
      ASSERT_OK(session->Abort());
    }
    StatsSnapshot snap = db.Stats();
    EXPECT_EQ(snap.Value("lo.vseg.bytes_read"), kFrames * kFrameBytes);
    uint64_t moved = snap.Value("lo.vseg.store.bytes_read");
    if (std::string(codec).empty()) {
      EXPECT_EQ(stored, kSegments * kSegmentBytes);
      EXPECT_EQ(moved, kFrames * kFrameBytes);
    } else {
      EXPECT_LT(stored, kSegments * kSegmentBytes);
      EXPECT_EQ(moved, kFrames * (stored / kSegments));
    }
    ASSERT_OK(db.Close());
  }
}

// -- raw v-segments: in-place overwrites ---------------------------------

/// Creates and commits a codec-less v-segment object holding `image`,
/// written one 64 KiB segment per Write, so every segment is stored raw.
Oid CreateRawVSegment(Database& db, Session& session, const Bytes& image) {
  Transaction* txn = session.Begin();
  LoSpec spec;
  spec.kind = StorageKind::kVSegment;
  Oid oid = db.large_objects().Create(txn, spec).value();
  std::shared_ptr<LargeObject> lo =
      db.large_objects().Instantiate(txn, oid).value();
  for (uint64_t off = 0; off < image.size(); off += kSegmentBytes) {
    EXPECT_OK(lo->Write(txn, off, Slice(image).Sub(off, kSegmentBytes)));
  }
  EXPECT_OK(session.Commit().status());
  return oid;
}

Bytes ReadWhole(Database& db, Transaction* txn, Oid oid) {
  std::shared_ptr<LargeObject> lo =
      db.large_objects().Instantiate(txn, oid).value();
  Bytes out(lo->Size(txn).value());
  EXPECT_EQ(lo->Read(txn, 0, out.size(), out.data()).value(), out.size());
  return out;
}

TEST_F(LoManagerTest, RawSegmentOverwritesOfDisjointRangesBothCommit) {
  // An in-place overwrite of a raw segment versions only the byte-store
  // chunks it covers, so writers of different segments never meet.
  Random rng(7);
  Bytes image = rng.RandomBytes(4 * kSegmentBytes);
  Oid oid = CreateRawVSegment(db_, *session_, image);
  Bytes first = rng.RandomBytes(4096);
  Bytes second = rng.RandomBytes(4096);
  const uint64_t first_at = 10'000;
  const uint64_t second_at = 3 * kSegmentBytes + 10'000;

  auto other = db_.Connect();
  Transaction* a = session_->Begin();
  Transaction* b = other->Begin();
  ASSERT_OK_AND_ASSIGN(auto a_lo, db_.large_objects().Instantiate(a, oid));
  ASSERT_OK_AND_ASSIGN(auto b_lo, db_.large_objects().Instantiate(b, oid));
  ASSERT_OK(a_lo->Write(a, first_at, Slice(first)));
  ASSERT_OK(b_lo->Write(b, second_at, Slice(second)));
  ASSERT_OK(session_->Commit().status());
  ASSERT_OK(other->Commit().status());

  std::memcpy(image.data() + first_at, first.data(), first.size());
  std::memcpy(image.data() + second_at, second.data(), second.size());
  Transaction* txn = session_->Begin();
  EXPECT_EQ(ReadWhole(db_, txn, oid), image);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, RawSegmentOverwritesOfOverlappingRangesConflict) {
  Random rng(8);
  Bytes image = rng.RandomBytes(2 * kSegmentBytes);
  Oid oid = CreateRawVSegment(db_, *session_, image);
  Bytes first = rng.RandomBytes(4096);
  Bytes second = rng.RandomBytes(4096);

  auto other = db_.Connect();
  Transaction* a = session_->Begin();
  Transaction* b = other->Begin();
  ASSERT_OK_AND_ASSIGN(auto a_lo, db_.large_objects().Instantiate(a, oid));
  ASSERT_OK_AND_ASSIGN(auto b_lo, db_.large_objects().Instantiate(b, oid));
  ASSERT_OK(a_lo->Write(a, 10'000, Slice(first)));
  // First updater wins.
  EXPECT_TRUE(b_lo->Write(b, 12'000, Slice(second)).IsAborted());
  ASSERT_OK(other->Abort());
  ASSERT_OK(session_->Commit().status());

  std::memcpy(image.data() + 10'000, first.data(), first.size());
  Transaction* txn = session_->Begin();
  EXPECT_EQ(ReadWhole(db_, txn, oid), image);
  ASSERT_OK(session_->Abort());
}

TEST_F(LoManagerTest, RawSegmentInPlaceOverwriteKeepsTimeTravel) {
  // One overwrite across the first segment boundary (65,536) and two
  // byte-store chunk boundaries (64,000 and 72,000). The replaced bytes
  // live on as the store chunks' previous versions, so a snapshot from
  // before the overwrite still reads them, and keeps doing so across
  // Vacuum(0) and compaction.
  Random rng(11);
  Bytes before = rng.RandomBytes(3 * kSegmentBytes);
  Oid oid = CreateRawVSegment(db_, *session_, before);
  CommitTime old_tick = db_.Now();
  const uint64_t at = kSegmentBytes - 3'000;
  Bytes patch = rng.RandomBytes(10'000);
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, oid));
    ASSERT_OK(lo->Write(txn, at, Slice(patch)));
    ASSERT_OK(session_->Commit().status());
  }
  Bytes after = before;
  std::memcpy(after.data() + at, patch.data(), patch.size());

  auto check = [&](const char* when) {
    SCOPED_TRACE(when);
    Transaction* historical = session_->BeginAsOf(old_tick);
    EXPECT_EQ(ReadWhole(db_, historical, oid), before);
    ASSERT_OK(session_->Abort());
    Transaction* current = session_->Begin();
    EXPECT_EQ(ReadWhole(db_, current, oid), after);
    ASSERT_OK(session_->Abort());
  };
  check("after the overwrite");
  ASSERT_OK(db_.large_objects().Vacuum(0).status());
  check("after Vacuum(0)");
  ASSERT_OK(db_.large_objects().CompactAll().status());
  check("after CompactAll");
  ASSERT_OK(db_.large_objects().Vacuum(0).status());
  check("after CompactAll and Vacuum(0)");
}

TEST_F(LoManagerTest, RawSegmentTruncateKeepsAConcurrentOverwrite) {
  // A truncates into segment 1 while B overwrites 4 KiB of the part of
  // segment 1 that A keeps. B versions only byte-store chunks and A only
  // the segment and size records, so both commit. Truncate shortens the
  // raw record over the same store bytes, so B's bytes survive, as in the
  // serial order B then A. A snapshot from before either still reads the
  // whole object.
  for (bool truncate_first : {true, false}) {
    SCOPED_TRACE(truncate_first ? "truncate first" : "overwrite first");
    Random rng(13);
    Bytes image = rng.RandomBytes(4 * kSegmentBytes);
    Oid oid = CreateRawVSegment(db_, *session_, image);
    CommitTime old_tick = db_.Now();
    const uint64_t new_size = kSegmentBytes + 40'000;
    const uint64_t patch_at = kSegmentBytes + 10'000;
    Bytes patch = rng.RandomBytes(4096);

    auto other = db_.Connect();
    Transaction* a = session_->Begin();
    Transaction* b = other->Begin();
    ASSERT_OK_AND_ASSIGN(auto a_lo, db_.large_objects().Instantiate(a, oid));
    ASSERT_OK_AND_ASSIGN(auto b_lo, db_.large_objects().Instantiate(b, oid));
    if (truncate_first) {
      ASSERT_OK(a_lo->Truncate(a, new_size));
      ASSERT_OK(b_lo->Write(b, patch_at, Slice(patch)));
    } else {
      ASSERT_OK(b_lo->Write(b, patch_at, Slice(patch)));
      ASSERT_OK(a_lo->Truncate(a, new_size));
    }
    ASSERT_OK(session_->Commit().status());
    ASSERT_OK(other->Commit().status());

    Transaction* historical = session_->BeginAsOf(old_tick);
    EXPECT_EQ(ReadWhole(db_, historical, oid), image);
    ASSERT_OK(session_->Abort());
    image.resize(new_size);
    std::memcpy(image.data() + patch_at, patch.data(), patch.size());
    Transaction* current = session_->Begin();
    EXPECT_EQ(ReadWhole(db_, current, oid), image);
    ASSERT_OK(session_->Abort());
  }
}

using IndexedClassTest = LoManagerTest;

TEST_F(IndexedClassTest, RecordFiledUnderNoKeyCountsForNoEntry) {
  // A record is filed under the 8-byte key it holds, or under no key when
  // it is empty (as a null field is in a query-layer index).
  const DbContext& ctx = db_.context();
  ASSERT_OK_AND_ASSIGN(IndexedClass::Files files,
                       IndexedClass::Create(ctx, kSmgrDisk));
  IndexedClass cls(ctx, files,
                   [](Slice image) -> Result<std::optional<uint64_t>> {
                     if (image.empty()) return std::optional<uint64_t>();
                     if (image.size() != 8) {
                       return Status::Corruption("bad record");
                     }
                     return std::optional<uint64_t>(
                         DecodeFixed64(image.data()));
                   });
  Bytes five;
  PutFixed64(&five, 5);
  Transaction* txn = session_->Begin();
  ASSERT_OK(cls.Insert(txn, 5, Slice(five)));
  ASSERT_OK_AND_ASSIGN(std::optional<IndexedClass::Record> found,
                       cls.Get(txn, 5));
  ASSERT_TRUE(found.has_value());
  // The appending transaction's update rewrites the tuple in place, so the
  // entry for 5 now points at a record filed under no key.
  ASSERT_OK_AND_ASSIGN(Tid tid, cls.heap().Update(txn, found->tid, Slice()));
  EXPECT_EQ(tid, found->tid);
  ASSERT_OK_AND_ASSIGN(found, cls.Get(txn, 5));
  EXPECT_FALSE(found.has_value());
  ASSERT_OK_AND_ASSIGN(auto entries, cls.Entries(txn, 0, ~0ull));
  EXPECT_TRUE(entries.empty());
  ASSERT_OK(session_->Commit().status());

  // Vacuum drops the entry.
  ASSERT_OK(
      cls.Vacuum(db_.txns().commit_log(), db_.Now(), nullptr).status());
  Btree index(&db_.pool(), files.index);
  ASSERT_OK_AND_ASSIGN(uint64_t left, index.CountEntries());
  EXPECT_EQ(left, 0u);
}

}  // namespace
}  // namespace pglo

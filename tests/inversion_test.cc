#include <gtest/gtest.h>

#include <algorithm>

#include "btree/btree.h"
#include "common/random.h"
#include "db/database.h"
#include "inversion/inversion_fs.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

/// Every (key, packed tid) entry of a B-tree, in index order.
Result<std::vector<std::pair<uint64_t, uint64_t>>> IndexEntries(Btree& index) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  PGLO_RETURN_IF_ERROR(
      index
          .Scan(0, ~0ull,
                [&](uint64_t key, uint64_t value) -> Result<bool> {
                  out.emplace_back(key, value);
                  return false;
                })
          .status());
  return out;
}

class InversionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 128;
    ASSERT_OK(db_.Open(options));
    session_ = db_.Connect();
    fs_ = std::make_unique<InversionFs>(db_.context(), &db_.large_objects());
    Transaction* txn = session_->Begin();
    ASSERT_OK(fs_->Bootstrap(txn));
    ASSERT_OK(session_->Commit().status());
  }

  TempDir dir_;
  Database db_;
  std::unique_ptr<Session> session_;
  std::unique_ptr<InversionFs> fs_;
};

TEST_F(InversionTest, MkDirCreateStatReadDir) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->MkDir(txn, "/video").status());
  ASSERT_OK(fs_->Create(txn, "/video/clip.raw", LoSpec{}).status());
  ASSERT_OK_AND_ASSIGN(auto st, fs_->Stat(txn, "/video/clip.raw"));
  EXPECT_FALSE(st.is_dir);
  EXPECT_EQ(st.size, 0u);
  EXPECT_NE(st.large_object, kInvalidOid);
  ASSERT_OK_AND_ASSIGN(auto dir_st, fs_->Stat(txn, "/video"));
  EXPECT_TRUE(dir_st.is_dir);
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir(txn, "/"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "video");
  EXPECT_TRUE(entries[0].is_dir);
  ASSERT_OK_AND_ASSIGN(entries, fs_->ReadDir(txn, "/video"));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "clip.raw");
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, FileReadWriteSeek) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->Create(txn, "/notes.txt", LoSpec{}).status());
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/notes.txt", true));
  ASSERT_OK(file->Write(Slice("the standard file system calls")));
  ASSERT_OK(file->Seek(4, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read(8));
  EXPECT_EQ(Slice(data).ToString(), "standard");
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  EXPECT_EQ(size, 30u);
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, TwoHandlesOnOneFileShareWrites) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->Create(txn, "/log.txt", LoSpec{}).status());
  ASSERT_OK_AND_ASSIGN(auto first, fs_->Open(txn, "/log.txt", true));
  ASSERT_OK(first->Write(Slice("short")));
  ASSERT_OK_AND_ASSIGN(auto second, fs_->Open(txn, "/log.txt", true));
  ASSERT_OK(second->Write(Slice("a longer line")));
  ASSERT_OK(first->Seek(0, Whence::kSet).status());
  ASSERT_OK_AND_ASSIGN(Bytes data, first->Read(64));
  EXPECT_EQ(Slice(data).ToString(), "a longer line");
  ASSERT_OK_AND_ASSIGN(uint64_t size, first->Size());
  EXPECT_EQ(size, 13u);
  ASSERT_OK_AND_ASSIGN(auto st, fs_->Stat(txn, "/log.txt"));
  EXPECT_EQ(st.size, 13u);
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, PathErrors) {
  Transaction* txn = session_->Begin();
  EXPECT_TRUE(fs_->Stat(txn, "/nope").status().IsNotFound());
  EXPECT_TRUE(fs_->Create(txn, "relative", LoSpec{})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(fs_->MkDir(txn, "/a/b/c").status().IsNotFound());  // no /a
  ASSERT_OK(fs_->Create(txn, "/file", LoSpec{}).status());
  EXPECT_TRUE(fs_->Create(txn, "/file", LoSpec{}).status().IsAlreadyExists());
  EXPECT_TRUE(fs_->MkDir(txn, "/file").status().IsAlreadyExists());
  EXPECT_TRUE(
      fs_->Create(txn, "/file/x", LoSpec{}).status().IsInvalidArgument());
  EXPECT_TRUE(fs_->Open(txn, "/", true).status().IsInvalidArgument());
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, UndecodableDirectoryRecordIsCorruption) {
  // The directory index is the Inversion catalog's relfile 16, keyed by a
  // hash of (parent, name).
  Btree dir_index(&db_.pool(), RelFileId{kSmgrDisk, 16});
  ASSERT_OK_AND_ASSIGN(auto before, IndexEntries(dir_index));
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->Create(txn, "/a", LoSpec{}).status());
  ASSERT_OK(session_->Commit().status());
  ASSERT_OK_AND_ASSIGN(auto after, IndexEntries(dir_index));
  std::vector<std::pair<uint64_t, uint64_t>> added;
  for (const auto& entry : after) {
    if (std::find(before.begin(), before.end(), entry) == before.end()) {
      added.push_back(entry);
    }
  }
  ASSERT_EQ(added.size(), 1u);  // /a's entry
  const auto [key, packed] = added[0];

  // Replace /a's DIRECTORY tuple with a 4-byte version, which no directory
  // record decodes from, and index it under /a's key.
  txn = session_->Begin();
  const uint8_t garbage[4] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_OK_AND_ASSIGN(
      Tid planted,
      fs_->directory_class().Update(txn, Btree::UnpackTid(packed),
                                    Slice(garbage, sizeof(garbage))));
  ASSERT_OK(dir_index.Insert(key, planted));
  ASSERT_OK(session_->Commit().status());

  // Lookup and scan agree: the damaged record is Corruption, never a
  // missing file.
  txn = session_->Begin();
  Result<InversionFs::StatInfo> st = fs_->Stat(txn, "/a");
  EXPECT_TRUE(st.status().IsCorruption()) << st.status().ToString();
  EXPECT_TRUE(fs_->Open(txn, "/a", false).status().IsCorruption());
  EXPECT_TRUE(fs_->Remove(txn, "/a").IsCorruption());
  EXPECT_TRUE(fs_->ReadDir(txn, "/").status().IsCorruption());
  ASSERT_OK(session_->Abort());
}

TEST_F(InversionTest, RemoveAndRmDir) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->MkDir(txn, "/d").status());
  ASSERT_OK(fs_->Create(txn, "/d/f", LoSpec{}).status());
  EXPECT_TRUE(fs_->RmDir(txn, "/d").IsInvalidArgument());  // not empty
  EXPECT_TRUE(fs_->Remove(txn, "/d").IsInvalidArgument());  // is a dir
  ASSERT_OK(fs_->Remove(txn, "/d/f"));
  ASSERT_OK_AND_ASSIGN(bool exists, fs_->Exists(txn, "/d/f"));
  EXPECT_FALSE(exists);
  ASSERT_OK(fs_->RmDir(txn, "/d"));
  ASSERT_OK_AND_ASSIGN(exists, fs_->Exists(txn, "/d"));
  EXPECT_FALSE(exists);
  EXPECT_TRUE(fs_->RmDir(txn, "/").IsInvalidArgument());
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, RenameMovesAcrossDirectories) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->MkDir(txn, "/src").status());
  ASSERT_OK(fs_->MkDir(txn, "/dst").status());
  ASSERT_OK(fs_->Create(txn, "/src/f", LoSpec{}).status());
  {
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/src/f", true));
    ASSERT_OK(file->Write(Slice("payload")));
  }
  ASSERT_OK(fs_->Rename(txn, "/src/f", "/dst/g"));
  ASSERT_OK_AND_ASSIGN(bool exists, fs_->Exists(txn, "/src/f"));
  EXPECT_FALSE(exists);
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/dst/g", false));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read(16));
  EXPECT_EQ(Slice(data).ToString(), "payload");
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, TransactionAbortRollsBackEverything) {
  // §8: "files are database large ADTs, so security, transactions, time
  // travel and compression are readily available."
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(fs_->Create(txn, "/keep", LoSpec{}).status());
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/keep", true));
    ASSERT_OK(file->Write(Slice("keep me")));
    ASSERT_OK(session_->Commit().status());
  }
  {
    Transaction* txn = session_->Begin();
    // Namespace change + content change, then abort.
    ASSERT_OK(fs_->Create(txn, "/phantom", LoSpec{}).status());
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/keep", true));
    ASSERT_OK(file->Seek(0, Whence::kSet).status());
    ASSERT_OK(file->Write(Slice("CLOBBER")));
    ASSERT_OK(session_->Abort());
  }
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, fs_->Exists(txn, "/phantom"));
  EXPECT_FALSE(exists);
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/keep", false));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read(16));
  EXPECT_EQ(Slice(data).ToString(), "keep me");
  ASSERT_OK(session_->Abort());
}

TEST_F(InversionTest, TimeTravelOverFileTree) {
  CommitTime before;
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(fs_->Create(txn, "/report", LoSpec{}).status());
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/report", true));
    ASSERT_OK(file->Write(Slice("draft 1")));
    ASSERT_OK_AND_ASSIGN(before, session_->Commit());
  }
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/report", true));
    ASSERT_OK(file->Seek(0, Whence::kSet).status());
    ASSERT_OK(file->Write(Slice("draft 2")));
    ASSERT_OK(fs_->Create(txn, "/appendix", LoSpec{}).status());
    ASSERT_OK(session_->Commit().status());
  }
  // Historical view: old contents, no /appendix.
  Transaction* historical = session_->BeginAsOf(before);
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(historical, "/report", false));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read(16));
  EXPECT_EQ(Slice(data).ToString(), "draft 1");
  ASSERT_OK_AND_ASSIGN(bool exists, fs_->Exists(historical, "/appendix"));
  EXPECT_FALSE(exists);
  ASSERT_OK(session_->Abort());
}

// A time-travel transaction is read-only, so opening a file for write
// under BeginAsOf is refused, as it is for any large object. File-backed
// kinds have no versions to refuse the write later: the refusal at open
// is what keeps their bytes.
TEST_F(InversionTest, TimeTravelOpenForWriteIsRefused) {
  for (StorageKind kind :
       {StorageKind::kPostgresFile, StorageKind::kUserFile}) {
    LoSpec spec;
    spec.kind = kind;
    spec.ufile_path = "as_of.dat";  // u-file only
    const std::string path = "/" + std::string(StorageKindToString(kind));
    Transaction* txn = session_->Begin();
    ASSERT_OK(fs_->Create(txn, path, spec).status());
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, path, true));
    ASSERT_OK(file->Write(Slice("ORIGINAL")));
    ASSERT_OK_AND_ASSIGN(CommitTime tick, session_->Commit());

    Transaction* historical = session_->BeginAsOf(tick);
    auto opened = fs_->Open(historical, path, true);
    EXPECT_TRUE(opened.status().IsPermissionDenied())
        << path << ": " << opened.status().ToString();
    if (opened.ok()) (void)opened.value()->Write(Slice("CLOBBERD"));
    ASSERT_OK(session_->Abort());

    txn = session_->Begin();
    ASSERT_OK_AND_ASSIGN(auto check, fs_->Open(txn, path, false));
    ASSERT_OK_AND_ASSIGN(Bytes data, check->Read(16));
    EXPECT_EQ(Slice(data).ToString(), "ORIGINAL") << path;
    ASSERT_OK(session_->Abort());
  }
}

TEST_F(InversionTest, CompressedFileStorageKind) {
  // §10: "Inversion can use either the f-chunk or v-segment large object
  // implementations for file storage."
  Transaction* txn = session_->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kVSegment;
  spec.codec = "lzss";
  ASSERT_OK(fs_->Create(txn, "/compressed.dat", spec).status());
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/compressed.dat", true));
  Bytes data(100'000, 0x77);  // highly compressible
  ASSERT_OK(file->Write(Slice(data)));
  ASSERT_OK(session_->Commit().status());

  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(Oid lo, fs_->LargeObjectOf(txn, "/compressed.dat"));
  ASSERT_OK_AND_ASSIGN(auto fp, db_.large_objects().Footprint(txn, lo));
  EXPECT_LT(fp.data_bytes, data.size() / 2);
  ASSERT_OK_AND_ASSIGN(auto file2, fs_->Open(txn, "/compressed.dat", false));
  ASSERT_OK_AND_ASSIGN(Bytes readback, file2->Read(data.size()));
  EXPECT_EQ(readback, data);
  ASSERT_OK(session_->Abort());
}

TEST_F(InversionTest, MtimeUpdatedOnWrite) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->Create(txn, "/stamped", LoSpec{}).status());
  ASSERT_OK(session_->Commit().status());
  ASSERT_OK_AND_ASSIGN(auto st0, [&] {
    Transaction* t = session_->Begin();
    auto r = fs_->Stat(t, "/stamped");
    EXPECT_OK(session_->Abort());
    return r;
  }());
  // Advance the simulated clock so the new mtime differs.
  db_.clock().Advance(1'000'000);
  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/stamped", true));
  ASSERT_OK(file->Write(Slice("dirty")));
  ASSERT_OK(session_->Commit().status());
  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto st1, fs_->Stat(txn, "/stamped"));
  EXPECT_GT(st1.mtime_ns, st0.mtime_ns);
  EXPECT_EQ(st1.ctime_ns, st0.ctime_ns);
  ASSERT_OK(session_->Abort());
}

TEST_F(InversionTest, ChmodChownAreTransactional) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->Create(txn, "/secured", LoSpec{}).status());
  ASSERT_OK(session_->Commit().status());
  CommitTime before = db_.Now();

  txn = session_->Begin();
  ASSERT_OK(fs_->SetMode(txn, "/secured", 0600));
  ASSERT_OK(fs_->SetOwner(txn, "/secured", 1001));
  ASSERT_OK(session_->Commit().status());

  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto st, fs_->Stat(txn, "/secured"));
  EXPECT_EQ(st.mode, 0600);
  EXPECT_EQ(st.owner, 1001u);
  ASSERT_OK(session_->Abort());

  // Aborted chmod does not stick.
  txn = session_->Begin();
  ASSERT_OK(fs_->SetMode(txn, "/secured", 0777));
  ASSERT_OK(session_->Abort());
  txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(st, fs_->Stat(txn, "/secured"));
  EXPECT_EQ(st.mode, 0600);
  ASSERT_OK(session_->Abort());

  // Permission history is time-traveled like everything else.
  Transaction* historical = session_->BeginAsOf(before);
  ASSERT_OK_AND_ASSIGN(st, fs_->Stat(historical, "/secured"));
  EXPECT_EQ(st.mode, 0644);  // the creation default
  EXPECT_EQ(st.owner, 0u);
  ASSERT_OK(session_->Abort());
}

TEST_F(InversionTest, DeepPathsResolve) {
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->MkDir(txn, "/a").status());
  ASSERT_OK(fs_->MkDir(txn, "/a/b").status());
  ASSERT_OK(fs_->MkDir(txn, "/a/b/c").status());
  ASSERT_OK(fs_->Create(txn, "/a/b/c/leaf", LoSpec{}).status());
  ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/a/b/c/leaf", true));
  ASSERT_OK(file->Write(Slice("deep")));
  ASSERT_OK_AND_ASSIGN(auto st, fs_->Stat(txn, "/a/b/c/leaf"));
  EXPECT_EQ(st.size, 4u);
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, ManyFilesInOneDirectory) {
  Transaction* txn = session_->Begin();
  for (int i = 0; i < 40; ++i) {
    ASSERT_OK(
        fs_->Create(txn, "/file" + std::to_string(i), LoSpec{}).status());
  }
  ASSERT_OK_AND_ASSIGN(auto entries, fs_->ReadDir(txn, "/"));
  EXPECT_EQ(entries.size(), 40u);
  std::vector<std::string> names;
  for (const auto& e : entries) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names.end(), std::unique(names.begin(), names.end()));
  ASSERT_OK(session_->Commit().status());
}

TEST_F(InversionTest, MetadataQueryableViaClasses) {
  // §8: "a user can use the query language to perform searches on the
  // DIRECTORY class" — here exercised through the raw class handle.
  Transaction* txn = session_->Begin();
  ASSERT_OK(fs_->MkDir(txn, "/music").status());
  ASSERT_OK(fs_->Create(txn, "/music/a.au", LoSpec{}).status());
  ASSERT_OK(fs_->Create(txn, "/music/b.au", LoSpec{}).status());
  int rows = 0;
  ASSERT_OK(fs_->directory_class()
                .Scan(txn,
                      [&](Tid, Slice) -> Result<bool> {
                        ++rows;
                        return false;
                      })
                .status());
  // root + music + 2 files
  EXPECT_EQ(rows, 4);
  ASSERT_OK(session_->Commit().status());
}

// Property test: random namespace + file operations against a reference
// model (committed after every transaction; some transactions abort, which
// must leave the model state intact).
class InversionFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InversionFuzz, MatchesReferenceModel) {
  TempDir dir;
  Database db;
  DatabaseOptions options;
  options.dir = dir.Sub("db");
  options.charge_devices = false;
  options.buffer_pool_frames = 128;
  ASSERT_OK(db.Open(options));
  auto session = db.Connect();
  InversionFs fs(db.context(), &db.large_objects());
  {
    Transaction* txn = session->Begin();
    ASSERT_OK(fs.Bootstrap(txn));
    ASSERT_OK(session->Commit().status());
  }

  Random rng(GetParam());
  // Reference: committed files (path -> contents) and directories.
  std::map<std::string, Bytes> files;
  std::set<std::string> dirs = {"/d0", "/d1"};
  {
    Transaction* txn = session->Begin();
    ASSERT_OK(fs.MkDir(txn, "/d0").status());
    ASSERT_OK(fs.MkDir(txn, "/d1").status());
    ASSERT_OK(session->Commit().status());
  }
  auto random_path = [&](bool existing) -> std::string {
    if (existing && !files.empty()) {
      auto it = files.begin();
      std::advance(it, rng.Uniform(files.size()));
      return it->first;
    }
    std::string parent =
        rng.OneInHundred(50) ? "" : (rng.OneInHundred(50) ? "/d0" : "/d1");
    return parent + "/f" + std::to_string(rng.Uniform(12));
  };

  for (int round = 0; round < 60; ++round) {
    Transaction* txn = session->Begin();
    auto staged_files = files;
    bool failed = false;
    int ops = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < ops && !failed; ++i) {
      switch (rng.Uniform(4)) {
        case 0: {  // create
          std::string path = random_path(false);
          Result<FileId> id = fs.Create(txn, path, LoSpec{});
          if (id.ok()) {
            staged_files[path] = Bytes();
          } else {
            EXPECT_TRUE(id.status().IsAlreadyExists()) << path;
          }
          break;
        }
        case 1: {  // write
          std::string path = random_path(true);
          if (!staged_files.count(path)) break;
          auto f = fs.Open(txn, path, true);
          ASSERT_OK(f.status());
          uint64_t off = rng.Uniform(5000);
          Bytes data = rng.RandomBytes(rng.Range(1, 3000));
          ASSERT_OK(f.value()->Seek(static_cast<int64_t>(off),
                                    Whence::kSet).status());
          ASSERT_OK(f.value()->Write(Slice(data)));
          Bytes& model = staged_files[path];
          if (model.size() < off + data.size()) {
            model.resize(off + data.size(), 0);
          }
          std::memcpy(model.data() + off, data.data(), data.size());
          break;
        }
        case 2: {  // remove
          std::string path = random_path(true);
          if (!staged_files.count(path)) break;
          ASSERT_OK(fs.Remove(txn, path));
          staged_files.erase(path);
          break;
        }
        case 3: {  // rename
          std::string from = random_path(true);
          std::string to = random_path(false);
          if (!staged_files.count(from) || staged_files.count(to) ||
              from == to) {
            break;
          }
          ASSERT_OK(fs.Rename(txn, from, to));
          staged_files[to] = std::move(staged_files[from]);
          staged_files.erase(from);
          break;
        }
      }
    }
    if (rng.OneInHundred(25)) {
      ASSERT_OK(session->Abort());  // reference unchanged
    } else {
      ASSERT_OK(session->Commit().status());
      files = std::move(staged_files);
    }
  }

  // Verify the committed state exactly.
  Transaction* txn = session->Begin();
  for (const auto& [path, expected] : files) {
    ASSERT_OK_AND_ASSIGN(bool exists, fs.Exists(txn, path));
    ASSERT_TRUE(exists) << path;
    ASSERT_OK_AND_ASSIGN(auto f, fs.Open(txn, path, false));
    ASSERT_OK_AND_ASSIGN(Bytes got, f->Read(expected.size() + 100));
    EXPECT_EQ(got, expected) << path;
  }
  // And that nothing extra exists.
  size_t found = 0;
  for (const std::string& d : {std::string("/"), std::string("/d0"),
                               std::string("/d1")}) {
    ASSERT_OK_AND_ASSIGN(auto entries, fs.ReadDir(txn, d));
    for (const auto& e : entries) {
      if (!e.is_dir) ++found;
    }
  }
  EXPECT_EQ(found, files.size());
  ASSERT_OK(session->Abort());
}

INSTANTIATE_TEST_SUITE_P(Seeds, InversionFuzz,
                         ::testing::Values(5, 55, 555, 5555));

TEST_F(InversionTest, SurvivesReopen) {
  {
    Transaction* txn = session_->Begin();
    ASSERT_OK(fs_->MkDir(txn, "/persist").status());
    ASSERT_OK(fs_->Create(txn, "/persist/f", LoSpec{}).status());
    ASSERT_OK_AND_ASSIGN(auto file, fs_->Open(txn, "/persist/f", true));
    ASSERT_OK(file->Write(Slice("across restart")));
    ASSERT_OK(session_->Commit().status());
  }
  ASSERT_OK(db_.SimulateCrashAndReopen());
  InversionFs fs2(db_.context(), &db_.large_objects());
  Transaction* txn = session_->Begin();
  ASSERT_OK_AND_ASSIGN(auto file, fs2.Open(txn, "/persist/f", false));
  ASSERT_OK_AND_ASSIGN(Bytes data, file->Read(32));
  EXPECT_EQ(Slice(data).ToString(), "across restart");
  ASSERT_OK(session_->Abort());
}

}  // namespace
}  // namespace pglo

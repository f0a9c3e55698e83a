// Multi-backend concurrency: K sessions driving interleaved transactions
// against one Database (the ISSUE 7 tentpole). These tests are the TSan /
// ASan workload for the whole engine — buffer pool, relation latches,
// transaction manager, commit log, LO manager — and the functional check
// that group commit batches concurrent committers without losing a commit.
//
// The supported concurrency model (DESIGN.md §13): one session per thread;
// any number of concurrent readers of an object; writers of the SAME
// object are serialized by the application (the reproduction has no tuple
// lock table, exactly like the visibility-only prototype the paper
// measured). Tests therefore give each writer thread its own object and
// let readers roam.

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "db/database.h"
#include "obs/stats.h"
#include "obs/wait_event.h"
#include "smgr/mm_smgr.h"
#include "storage/rel_latch.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

constexpr int kBackends = 4;
constexpr int kRounds = 16;
constexpr size_t kObjectBytes = 32 * 1024;  // 4 pages of chunks

/// The committed image of object `t` after its round `r` commit: a solid
/// byte identifying (backend, round). A reader must always observe a
/// solid image — any mix of two patterns is a torn (non-atomic) commit.
uint8_t PatternByte(int t, int r) {
  return static_cast<uint8_t>(0x10 * (t + 1) + (r % 8) + 1);
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  DatabaseOptions Options() {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 128;
    return options;
  }

  /// Creates one f-chunk object per backend, filled with its round-"0"
  /// pattern, and returns the oids.
  std::vector<Oid> CreateObjects(Database* db, int n) {
    std::vector<Oid> oids;
    auto session = db->Connect();
    for (int t = 0; t < n; ++t) {
      session->Begin();
      auto created = session->CreateLo(LoSpec{});
      EXPECT_OK(created.status());
      auto fd = session->OpenLo(created.value(), /*writable=*/true);
      EXPECT_OK(fd.status());
      Bytes image(kObjectBytes, PatternByte(t, 0));
      EXPECT_OK(fd.value()->Write(Slice(image)));
      EXPECT_OK(session->Commit().status());
      oids.push_back(created.value());
    }
    return oids;
  }

  TempDir dir_;
};

/// Reads `oid` under `session`'s open transaction and requires a solid
/// image; returns its byte.
uint8_t ReadSolidImage(Session* session, Oid oid) {
  auto fd = session->OpenLo(oid, /*writable=*/false);
  EXPECT_OK(fd.status());
  auto data = fd.value()->Read(kObjectBytes);
  EXPECT_OK(data.status());
  EXPECT_EQ(data.value().size(), kObjectBytes);
  uint8_t first = data.value().empty() ? 0 : data.value()[0];
  for (size_t i = 0; i < data.value().size(); ++i) {
    if (data.value()[i] != first) {
      ADD_FAILURE() << "torn image: byte " << i << " is "
                    << int(data.value()[i]) << ", expected " << int(first);
      return first;
    }
  }
  return first;
}

TEST_F(ConcurrencyTest, InterleavedSessionsSeeOnlyCommittedImages) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  std::vector<Oid> oids = CreateObjects(&db, kBackends);

  // last_committed[t] = the round whose pattern is object t's durable
  // image. Written only by thread t; read by everyone after the join.
  std::vector<int> last_committed(kBackends, 0);
  std::atomic<bool> failed{false};

  auto worker = [&](int t) {
    auto session = db.Connect();
    for (int r = 1; r <= kRounds && !failed.load(); ++r) {
      // Write this round's pattern; commit two rounds of three, abort the
      // third — aborted patterns must never become visible.
      bool abort_round = (r % 3 == 0);
      session->Begin();
      auto fd = session->OpenLo(oids[t], /*writable=*/true);
      if (!fd.ok()) { failed = true; return; }
      Bytes image(kObjectBytes,
                  abort_round ? uint8_t(0xEE) : PatternByte(t, r));
      if (!fd.value()->Write(Slice(image)).ok()) { failed = true; return; }
      if (abort_round) {
        if (!session->Abort().ok()) { failed = true; return; }
      } else {
        if (!session->Commit().ok()) { failed = true; return; }
        last_committed[t] = r;
      }

      // Read my own object back: must be exactly my last committed image.
      session->Begin();
      uint8_t mine = ReadSolidImage(session.get(), oids[t]);
      EXPECT_EQ(mine, PatternByte(t, last_committed[t]));
      // And a neighbour's: some committed image of that backend — solid,
      // carrying its owner id, never the 0xEE abort garbage.
      int other = (t + 1) % kBackends;
      uint8_t theirs = ReadSolidImage(session.get(), oids[other]);
      EXPECT_EQ(theirs & 0xF0, 0x10 * (other + 1))
          << "object " << other << " shows a foreign or aborted pattern";
      if (!session->Abort().ok()) { failed = true; return; }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kBackends);
  for (int t = 0; t < kBackends; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  ASSERT_FALSE(failed.load());

  // Final oracle check from a fresh backend.
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kBackends; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]),
              PatternByte(t, last_committed[t]));
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, CompactionConcurrentWithSnapshotReaders) {
  // Online defragmentation is a writer of every object, but a no-overwrite
  // one: relocated versions are fresh inserts and the originals are only
  // MVCC-deleted, so snapshot readers opened before (or during) a
  // compaction pass must keep seeing solid committed images throughout.
  // One maintenance thread churns + compacts; reader threads roam — the
  // supported concurrency model, with compaction playing the writer.
  Database db;
  ASSERT_OK(db.Open(Options()));
  const int kObjects = 3;
  std::vector<Oid> oids = CreateObjects(&db, kObjects);

  std::vector<std::atomic<int>> committed(kObjects);
  for (auto& c : committed) c = 0;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  auto reader = [&] {
    auto session = db.Connect();
    while (!stop.load()) {
      // Floor snapshot: rounds committed before this Begin can never be
      // un-seen, no matter how much compaction relocates underneath.
      std::vector<int> floor(kObjects);
      for (int t = 0; t < kObjects; ++t) floor[t] = committed[t].load();
      session->Begin();
      for (int t = 0; t < kObjects; ++t) {
        uint8_t got = ReadSolidImage(session.get(), oids[t]);
        // ReadSolidImage already failed the test if the image was torn;
        // additionally the round must be at least the pre-Begin floor.
        int round = (got & 0x0F) - 1;
        EXPECT_GE(round, floor[t] % 8)
            << "reader saw an image older than its snapshot floor";
        if (::testing::Test::HasFailure()) { failed = true; return; }
      }
      if (!session->Abort().ok()) { failed = true; return; }
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);

  // Maintenance thread (this one): whole-object rewrites so every commit
  // leaves a solid image, then CompactAll while the readers are live.
  auto writer_session = db.Connect();
  for (int r = 1; r <= 4 && !failed.load(); ++r) {
    for (int t = 0; t < kObjects; ++t) {
      writer_session->Begin();
      auto fd = writer_session->OpenLo(oids[t], /*writable=*/true);
      ASSERT_OK(fd.status());
      Bytes image(kObjectBytes, PatternByte(t, r));
      ASSERT_OK(fd.value()->Write(Slice(image)));
      ASSERT_OK(writer_session->Commit().status());
      committed[t] = r;
    }
    ASSERT_OK(db.large_objects().CompactAll().status());
  }
  stop = true;
  for (auto& th : readers) th.join();
  ASSERT_FALSE(failed.load());

  // Reclaim everything compaction vacated, then the final oracle check.
  ASSERT_OK(db.large_objects().Vacuum(db.Now()).status());
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kObjects; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]), PatternByte(t, 4));
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, GroupCommitBatchesFsyncsWithoutLosingCommits) {
  DatabaseOptions options = Options();
  options.group_commit = true;
  Database db;
  ASSERT_OK(db.Open(options));
  constexpr int kCommitters = 8;
  std::vector<Oid> oids = CreateObjects(&db, kCommitters);

  uint64_t fsyncs_before = db.txns().commit_log().fsync_count();
  // Single commits (setup above, bootstrap) also flow through the grouped
  // path as 1-member batches; diff against this point.
  size_t batches_before = db.txns().group_sizes().size();
  std::vector<int> last_committed(kCommitters, 0);
  uint64_t total_commits = 0;

  // Rounds of simultaneous commits (a spin barrier lines the threads up)
  // until the leader demonstrably absorbed followers: some recorded batch
  // has 2+ members. With 8 threads per round this converges immediately in
  // practice; the loop bound only guards pathological scheduling.
  int round = 0;
  bool batched = false;
  while (!batched && round < 50) {
    ++round;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kCommitters);
    for (int t = 0; t < kCommitters; ++t) {
      threads.emplace_back([&, t] {
        auto session = db.Connect();
        session->Begin();
        auto fd = session->OpenLo(oids[t], /*writable=*/true);
        ASSERT_OK(fd.status());
        Bytes image(kObjectBytes, PatternByte(t, round));
        ASSERT_OK(fd.value()->Write(Slice(image)));
        ready.fetch_add(1);
        while (ready.load() < kCommitters) std::this_thread::yield();
        ASSERT_OK(session->Commit().status());
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kCommitters; ++t) last_committed[t] = round;
    total_commits += kCommitters;
    const auto& sizes = db.txns().group_sizes();
    for (size_t i = batches_before; i < sizes.size(); ++i) {
      if (sizes[i] >= 2) batched = true;
    }
  }
  ASSERT_TRUE(batched) << "no commit batch formed in " << round << " rounds";

  // Batching must have saved log forces: strictly fewer fsyncs than
  // commits (each CreateObjects commit above the baseline was 1:1).
  uint64_t fsyncs = db.txns().commit_log().fsync_count() - fsyncs_before;
  EXPECT_LT(fsyncs, total_commits);
  // Bookkeeping agrees: every round commit is in exactly one batch.
  uint64_t grouped = 0;
  const auto& sizes = db.txns().group_sizes();
  for (size_t i = batches_before; i < sizes.size(); ++i) grouped += sizes[i];
  EXPECT_EQ(grouped, total_commits);

  // Zero lost commits: pull the plug and re-read every object.
  ASSERT_OK(db.SimulateCrashAndReopen());
  auto session = db.Connect();
  session->Begin();
  for (int t = 0; t < kCommitters; ++t) {
    EXPECT_EQ(ReadSolidImage(session.get(), oids[t]),
              PatternByte(t, last_committed[t]))
        << "backend " << t << "'s group-committed image did not survive";
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, ConcurrentForcesKeepEveryCommittedBlock) {
  // Four group-commit sessions overwrite random 4 KiB blocks of their own
  // f-chunk and v-segment objects, so each batch's force writes pages back
  // with no pool latch held while the other sessions fault, dirty, append
  // and evict. A crash then drops every unflushed frame: each object must
  // read back its last committed bytes. A force that skipped a page in
  // flight under another writer would lose it here. Replays under
  // PGLO_TEST_SEED.
  constexpr int kSessions = 4;
  constexpr int kTxns = 24;
  constexpr size_t kBlock = 4096;
  constexpr size_t kBytes = 16 * kBlock;
  const uint64_t seed = testing::TestSeed();
  DatabaseOptions options = Options();
  options.group_commit = true;
  Database db;
  ASSERT_OK(db.Open(options));
  auto fill = [](Random& rnd, uint8_t* dst, size_t n) {
    for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>(rnd.Next());
  };
  // Session t owns objects 2t (f-chunk) and 2t + 1 (v-segment);
  // committed[i] is object i's last committed image, written only by its
  // owner until the join.
  std::vector<Oid> oids;
  std::vector<Bytes> committed;
  {
    auto session = db.Connect();
    Random rnd(seed);
    for (int i = 0; i < 2 * kSessions; ++i) {
      LoSpec spec;
      spec.kind = i % 2 == 0 ? StorageKind::kFChunk : StorageKind::kVSegment;
      session->Begin();
      ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
      ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
      Bytes image(kBytes);
      fill(rnd, image.data(), kBytes);
      ASSERT_OK(fd->Write(Slice(image)));
      ASSERT_OK(session->Commit().status());
      oids.push_back(oid);
      committed.push_back(std::move(image));
    }
  }
  std::atomic<int> failures{0};
  auto worker = [&](int t) {
    auto session = db.Connect();
    Random rnd(seed * 31 + t + 1);
    auto ok = [&](const Status& s) {
      if (!s.ok()) {
        ADD_FAILURE() << "session " << t << ": " << s.ToString();
        ++failures;
      }
      return s.ok();
    };
    for (int n = 0; n < kTxns; ++n) {
      session->Begin();
      Bytes images[2] = {committed[2 * t], committed[2 * t + 1]};
      for (int k = 0; k < 2; ++k) {
        Result<LoDescriptor*> fd = session->OpenLo(oids[2 * t + k], true);
        if (!ok(fd.status())) return;
        for (uint64_t w = 1 + rnd.Uniform(3); w > 0; --w) {
          const uint64_t off = rnd.Uniform(kBytes / kBlock) * kBlock;
          fill(rnd, images[k].data() + off, kBlock);
          if (!ok(fd.value()->Seek(static_cast<int64_t>(off), Whence::kSet)
                      .status()) ||
              !ok(fd.value()->Write(Slice(images[k].data() + off, kBlock)))) {
            return;
          }
        }
      }
      if (rnd.Uniform(4) == 0) {
        if (!ok(session->Abort())) return;
        continue;
      }
      if (!ok(session->Commit().status())) return;
      committed[2 * t] = std::move(images[0]);
      committed[2 * t + 1] = std::move(images[1]);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0) << "seed " << seed;

  ASSERT_OK(db.SimulateCrashAndReopen());
  auto session = db.Connect();
  session->Begin();
  for (size_t i = 0; i < oids.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oids[i], false));
    ASSERT_OK_AND_ASSIGN(Bytes data, fd->Read(kBytes));
    ASSERT_EQ(data.size(), kBytes) << "object " << i << ", seed " << seed;
    for (size_t off = 0; off < kBytes; off += kBlock) {
      EXPECT_EQ(std::memcmp(data.data() + off, committed[i].data() + off,
                            kBlock),
                0)
          << "object " << i << " lost its committed block at " << off
          << ", seed " << seed;
    }
  }
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, CatalogWalksRaceCreatesOpensAndListings) {
  // Four sessions create objects and open their own and other sessions'
  // committed ones while a fifth lists the LO catalog in a loop, so every
  // catalog walk runs against pages other sessions are appending to. A
  // third of the creating transactions abort. Every open of a committed
  // object, or of the session's own, must succeed; a listing must hold
  // every object committed before it began and no object whose
  // transaction had not begun to commit. Replays under PGLO_TEST_SEED.
  constexpr int kSessions = 4;
  constexpr int kRounds = 12;
  constexpr int kPreloaded = 150;  // the catalog spans two pages
  const uint64_t seed = testing::TestSeed();
  Database db;
  ASSERT_OK(db.Open(Options()));
  LoSpec spec;
  spec.smgr = kSmgrMemory;  // no host descriptor per relation file
  std::mutex mu;
  std::vector<Oid> committed;    // guarded by mu; listed once committed
  std::set<Oid> may_be_visible;  // guarded by mu; added before Commit
  {
    auto session = db.Connect();
    session->Begin();
    for (int i = 0; i < kPreloaded; ++i) {
      ASSERT_OK_AND_ASSIGN(Oid oid, session->CreateLo(spec));
      committed.push_back(oid);
      may_be_visible.insert(oid);
    }
    ASSERT_OK(session->Commit().status());
  }
  std::atomic<int> failures{0};
  auto ok = [&](int who, const Status& s) {
    if (!s.ok()) {
      ADD_FAILURE() << "session " << who << ": " << s.ToString();
      ++failures;
    }
    return s.ok();
  };
  auto worker = [&](int t) {
    auto session = db.Connect();
    Random rnd(seed * 31 + t + 1);
    for (int r = 0; r < kRounds; ++r) {
      std::vector<Oid> others;
      {
        std::lock_guard<std::mutex> lock(mu);
        others = committed;
      }
      session->Begin();
      Result<Oid> mine = session->CreateLo(spec);
      if (!ok(t, mine.status())) return;
      Result<LoDescriptor*> fd = session->OpenLo(mine.value(), true);
      if (!ok(t, fd.status()) || !ok(t, fd.value()->Write(Slice("mine")))) {
        return;
      }
      for (int k = 0; k < 2; ++k) {
        Oid other = others[rnd.Uniform(others.size())];
        if (!ok(t, session->OpenLo(other, false).status())) return;
      }
      if (r % 3 == 2) {
        if (!ok(t, session->Abort())) return;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        may_be_visible.insert(mine.value());
      }
      if (!ok(t, session->Commit().status())) return;
      std::lock_guard<std::mutex> lock(mu);
      committed.push_back(mine.value());
    }
  };
  std::atomic<bool> stop{false};
  int listings = 0;
  auto lister = [&] {
    auto session = db.Connect();
    while (!stop.load()) {
      std::vector<Oid> floor;
      {
        std::lock_guard<std::mutex> lock(mu);
        floor = committed;
      }
      Transaction* txn = session->Begin();
      Result<std::vector<LoManager::ObjectInfo>> listed =
          db.large_objects().List(txn);
      if (!ok(kSessions, listed.status()) || !ok(kSessions, session->Abort())) {
        return;
      }
      ++listings;
      std::set<Oid> seen;
      for (const LoManager::ObjectInfo& info : listed.value()) {
        seen.insert(info.oid);
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Oid oid : seen) {
        if (may_be_visible.count(oid) == 0) {
          ADD_FAILURE() << "listed object " << oid << " was never committing";
          ++failures;
        }
      }
      for (Oid oid : floor) {
        if (seen.count(oid) == 0) {
          ADD_FAILURE() << "listing lost committed object " << oid;
          ++failures;
        }
      }
    }
  };
  std::thread listing(lister);
  std::vector<std::thread> threads;
  for (int t = 0; t < kSessions; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  stop = true;
  listing.join();
  ASSERT_EQ(failures.load(), 0) << "seed " << seed;
  EXPECT_GT(listings, 0);

  auto session = db.Connect();
  Transaction* txn = session->Begin();
  ASSERT_OK_AND_ASSIGN(std::vector<LoManager::ObjectInfo> listed,
                       db.large_objects().List(txn));
  EXPECT_EQ(listed.size(),
            static_cast<size_t>(kPreloaded + kSessions * kRounds * 2 / 3));
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, CommitConsumesTheTransaction) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();

  Transaction* txn = session->Begin();
  ASSERT_TRUE(session->in_txn());
  ASSERT_OK(session->Commit().status());
  EXPECT_FALSE(session->in_txn());
  EXPECT_EQ(session->txn(), nullptr);

  // The session rejects a second Commit/Abort instead of touching the
  // consumed transaction.
  EXPECT_FALSE(session->Commit().ok());
  EXPECT_FALSE(session->Abort().ok());

  // The transaction manager itself refuses the stale pointer (membership
  // check, no dereference of freed state).
  Status stale = db.txns().Commit(txn).status();
  EXPECT_TRUE(stale.IsInvalidArgument()) << stale.ToString();

  // A fresh Begin works; the activity slot counted both outcomes.
  session->Begin();
  ASSERT_OK(session->Abort());
  const BackendSlot* slot = session->activity_slot();
  EXPECT_EQ(slot->begun.load(), 2u);
  EXPECT_EQ(slot->committed.load(), 1u);
  EXPECT_EQ(slot->aborted.load(), 1u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, SessionDestructorAbortsInProgressTransaction) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  Oid oid;
  {
    auto session = db.Connect();
    session->Begin();
    ASSERT_OK_AND_ASSIGN(oid, session->CreateLo(LoSpec{}));
    ASSERT_OK_AND_ASSIGN(LoDescriptor * fd, session->OpenLo(oid, true));
    ASSERT_OK(fd->Write(Slice("never committed")));
    // Session dropped with the transaction open: it must abort.
  }
  auto session = db.Connect();
  session->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, session->ExistsLo(oid));
  EXPECT_FALSE(exists);
  ASSERT_OK(session->Abort());
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, BackendIdsAreDense) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto a = db.Connect();
  auto b = db.Connect();
  auto c = db.Connect();
  EXPECT_EQ(a->backend_id(), 1u);
  EXPECT_EQ(b->backend_id(), 2u);
  EXPECT_EQ(c->backend_id(), 3u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, GroupCommitOffKeepsOneFsyncPerCommit) {
  // With the flag off (the default), the historical 1:1 commit/fsync
  // sequence is preserved — this is what keeps single-stream benchmark
  // times bit-identical to the pre-concurrency engine.
  Database db;
  ASSERT_OK(db.Open(Options()));
  auto session = db.Connect();
  uint64_t before = db.txns().commit_log().fsync_count();
  for (int i = 0; i < 5; ++i) {
    session->Begin();
    ASSERT_OK(session->CreateLo(LoSpec{}).status());
    ASSERT_OK(session->Commit().status());
  }
  EXPECT_EQ(db.txns().commit_log().fsync_count() - before, 5u);
  EXPECT_TRUE(db.txns().group_sizes().empty());
  ASSERT_OK(db.Close());
}

// ---- wait-event instrumentation under real contention ------------------

const StatsSnapshot::HistogramEntry* SnapHist(const StatsSnapshot& s,
                                              const std::string& name) {
  for (const StatsSnapshot::HistogramEntry& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

TEST_F(ConcurrencyTest, ForcedContentionOnOneRelationReportsWaits) {
  // Every backend hammers the SAME object (readers may share), so every
  // read serializes on that relation's heap latch and the pool latch.
  // Acquire counts are deterministic; with 8 threads looping, actual
  // blocking is statistically certain, but only the deterministic
  // RelLatchContention test below asserts exact contended counts.
  Database db;
  ASSERT_OK(db.Open(Options()));
  std::vector<Oid> oids = CreateObjects(&db, 1);
  ASSERT_NE(db.waits(), nullptr);

  constexpr int kReaders = 8;
  constexpr int kReads = 64;
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto session = db.Connect();
      for (int i = 0; i < kReads; ++i) {
        session->Begin();
        ReadSolidImage(session.get(), oids[0]);
        ASSERT_OK(session->Abort());
      }
    });
  }
  for (auto& th : threads) th.join();

  StatsSnapshot snap = db.Stats();
  // Each read takes the heap latch at least once; 8 × 64 lower bound.
  EXPECT_GE(snap.Value("wait.latch.rel.heap.acquires"),
            uint64_t{kReaders * kReads});
  EXPECT_GT(snap.Value("wait.latch.bufpool.acquires"), 0u);
  EXPECT_GT(snap.Value("wait.clog.mutex.acquires"), 0u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, RelLatchContentionIsCountedAndTimed) {
  // Deterministic contended episode: A holds one relation's latch while B
  // provably blocks on it — contended count and the wall-time histogram
  // must both move, and B's WaitSlot must name the wait while blocked.
  Database db;
  ASSERT_OK(db.Open(Options()));
  ASSERT_NE(db.waits(), nullptr);
  RelLatchRegistry* latches = db.pool().rel_latches();
  const RelFileId file{kSmgrDisk, 424242};

  StatsSnapshot before = db.Stats();
  std::atomic<bool> held{false};
  std::atomic<bool> observed_wait{false};
  auto session_b = db.Connect();
  const BackendSlot* slot_b = session_b->activity_slot();
  ASSERT_NE(slot_b, nullptr);

  std::thread a([&] {
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    held.store(true);
    // Hold until the monitor (below) has seen B blocked on this latch;
    // once B blocks, its slot stays published until A releases, so the
    // monitor cannot miss it. Bounded at ~2s as a deadlock backstop.
    for (int i = 0; i < 40000 && !observed_wait.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    latches->Unlock(file);
  });
  std::thread b([&] {
    while (!held.load()) std::this_thread::yield();
    // Publish B's WaitSlot from the blocking thread, as Session::Begin
    // does for cross-thread sessions.
    SetCurrentWaitSlot(&const_cast<BackendSlot*>(slot_b)->wait);
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    latches->Unlock(file);
    SetCurrentWaitSlot(nullptr);
  });
  // Monitor: watch B's published slot until it names the latch wait
  // (bounded at ~2s; A keeps holding until the monitor has seen it).
  for (int i = 0; i < 40000 && !observed_wait.load(); ++i) {
    WaitSlot::Reading r = slot_b->wait.Read();
    if (r.event == WaitEvent::kLatchRelHeap) {
      observed_wait.store(true);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  a.join();
  b.join();
  EXPECT_TRUE(observed_wait.load())
      << "monitor never saw backend B publish latch.rel.heap";

  StatsSnapshot after = db.Stats();
  EXPECT_GE(after.Value("wait.latch.rel.heap.contended") -
                before.Value("wait.latch.rel.heap.contended"),
            1u);
  const StatsSnapshot::HistogramEntry* hist =
      SnapHist(after, "wait.latch.rel.heap_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->count, 1u);
  EXPECT_GT(hist->sum_ns, 0u);
  // The slot accumulated the finished wait.
  EXPECT_GE(slot_b->wait.waits(), 1u);
  EXPECT_GT(slot_b->wait.waited_ns(), 0u);
  ASSERT_OK(db.Close());
}

TEST_F(ConcurrencyTest, WaitSlotReadsAreNeverTorn) {
  // One writer flips the slot between idle and every wait class with
  // wildly different start stamps; concurrent readers must only ever see
  // (event, start) pairs written together — a stale-event/fresh-stamp mix
  // would decode as an absurd wait class or a nonzero idle stamp.
  WaitSlot slot;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto event = static_cast<WaitEvent>(
          1 + (i % (static_cast<uint64_t>(WaitEvent::kNumWaitEvents) - 1)));
      // Start stamps patterned so a torn read is detectable: the stamp's
      // low bits always equal the event id.
      uint64_t start = (i << 8) | static_cast<uint64_t>(event);
      slot.BeginWait(event, start);
      slot.EndWait(1);
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200000; ++i) {
        WaitSlot::Reading reading = slot.Read();
        ASSERT_LT(static_cast<unsigned>(reading.event),
                  static_cast<unsigned>(WaitEvent::kNumWaitEvents));
        if (reading.event == WaitEvent::kNone) {
          ASSERT_EQ(reading.start_ns, 0u);
        } else {
          // The packed word carries event and stamp together.
          ASSERT_EQ(reading.start_ns & 0xFF,
                    static_cast<uint64_t>(reading.event));
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true);
  writer.join();
}

TEST_F(ConcurrencyTest, ActivityViewTracksSessionsAndTxnState) {
  Database db;
  ASSERT_OK(db.Open(Options()));
  EXPECT_EQ(db.activity().live_count(), 0u);

  auto a = db.Connect();
  auto b = db.Connect();
  EXPECT_EQ(db.activity().live_count(), 2u);

  a->Begin();
  std::vector<BackendActivityRow> rows = db.activity().Snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].backend_id, a->backend_id());
  EXPECT_EQ(rows[1].backend_id, b->backend_id());
  EXPECT_TRUE(rows[0].in_txn);
  EXPECT_GT(rows[0].xid, 0u);
  EXPECT_EQ(rows[0].begun, 1u);
  EXPECT_FALSE(rows[1].in_txn);
  ASSERT_OK(a->Commit().status());

  rows = db.activity().Snapshot();
  EXPECT_FALSE(rows[0].in_txn);
  EXPECT_EQ(rows[0].xid, 0u);
  EXPECT_EQ(rows[0].committed, 1u);

  // Disconnect frees the row; a later connect reuses the slot.
  b.reset();
  EXPECT_EQ(db.activity().live_count(), 1u);
  auto c = db.Connect();
  EXPECT_EQ(db.activity().live_count(), 2u);
  ASSERT_OK(db.Close());
}

// ---- relation latches under concurrency --------------------------------

/// A standalone registry with its wait classes bound to a registry of its
/// own, as Database::Open binds the pool's.
struct BoundLatches {
  BoundLatches() {
    waits.Bind(&stats, nullptr, 0);
    latches.BindWaits(&waits);
  }
  uint64_t Value(const std::string& name) const {
    return stats.Snapshot().Value(name);
  }
  /// Contended waits on the relation latches themselves (not the shards).
  uint64_t LatchWaits() const {
    StatsSnapshot s = stats.Snapshot();
    return s.Value("wait.latch.rel.heap.contended") +
           s.Value("wait.latch.rel.btree.contended") +
           s.Value("wait.latch.rel.other.contended");
  }

  StatsRegistry stats;
  WaitStatsTable waits;
  RelLatchRegistry latches;
};

/// Voluntary context switches of the calling thread so far.
long ThreadVoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_nvcsw;
}

TEST(RelLatchTest, SeededStressKeepsMutualExclusionAndLosesNoWakeup) {
  // 8 threads take random nested latch sets over two heaps and their
  // indexes, always heap before its index (ascending here), and re-enter
  // latches they hold. An owner word per relation proves mutual
  // exclusion; a watchdog proves every thread finishes, so no release
  // was lost on a waiter.
  const uint64_t seed = pglo::testing::TestSeed();
  SCOPED_TRACE("replay with PGLO_TEST_SEED=" + std::to_string(seed));
  constexpr int kThreads = 8;
  constexpr int kRelations = 4;
  constexpr int kIterations = 2000;
  // Relfiles 1 and 17 share a shard, as do 2 and 18: the stress covers
  // two latches of one shard as well as latches of two shards.
  const RelFileId rels[kRelations] = {
      {kSmgrDisk, 1}, {kSmgrDisk, 17}, {kSmgrDisk, 2}, {kSmgrDisk, 18}};
  const WaitEvent kinds[kRelations] = {
      WaitEvent::kLatchRelHeap, WaitEvent::kLatchRelBtree,
      WaitEvent::kLatchRelHeap, WaitEvent::kLatchRelBtree};

  BoundLatches b;
  std::atomic<int> owner[kRelations];
  for (auto& o : owner) o.store(-1);
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> outermost[kRelations] = {};
  std::mutex done_mu;
  std::condition_variable done_cv;
  int finished = 0;

  auto worker = [&](int t) {
    Random rng(seed * 1000003 + static_cast<uint64_t>(t));
    std::vector<std::unique_ptr<RelLatchGuard>> guards;
    std::vector<int> taken;
    for (int i = 0; i < kIterations; ++i) {
      const uint64_t mask = 1 + rng.Uniform((1u << kRelations) - 1);
      for (int r = 0; r < kRelations; ++r) {
        if ((mask & (1u << r)) == 0) continue;
        guards.push_back(
            std::make_unique<RelLatchGuard>(&b.latches, rels[r], kinds[r]));
        int expected = -1;
        if (!owner[r].compare_exchange_strong(expected, t)) ++violations;
        ++outermost[r];
        taken.push_back(r);
        if (rng.Uniform(4) == 0) {
          // Re-enter any latch already held (never out of order).
          const int h = taken[rng.Uniform(taken.size())];
          b.latches.Lock(rels[h], kinds[h]);
          if (owner[h].load() != t) ++violations;
          b.latches.Unlock(rels[h]);
        }
      }
      if (rng.Uniform(8) == 0) std::this_thread::yield();
      while (!taken.empty()) {
        int expected = t;
        if (!owner[taken.back()].compare_exchange_strong(expected, -1)) {
          ++violations;
        }
        taken.pop_back();
        guards.pop_back();
      }
    }
    std::lock_guard<std::mutex> lock(done_mu);
    ++finished;
    done_cv.notify_all();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  {
    std::unique_lock<std::mutex> lock(done_mu);
    if (!done_cv.wait_for(lock, std::chrono::seconds(120),
                          [&] { return finished == kThreads; })) {
      // Blocked threads cannot be joined: fail the whole binary loudly.
      std::fprintf(stderr,
                   "%d of %d latch threads still blocked after 120 s: a "
                   "lost wakeup (PGLO_TEST_SEED=%llu)\n",
                   kThreads - finished, kThreads,
                   static_cast<unsigned long long>(seed));
      std::fflush(stderr);
      std::_Exit(1);
    }
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(violations.load(), 0u);
  // Only outermost acquisitions count, by kind; the shard mutex counts
  // each of them and each final release.
  const uint64_t heaps = outermost[0] + outermost[2];
  const uint64_t btrees = outermost[1] + outermost[3];
  EXPECT_EQ(b.Value("wait.latch.rel.heap.acquires"), heaps);
  EXPECT_EQ(b.Value("wait.latch.rel.btree.acquires"), btrees);
  EXPECT_EQ(b.Value("wait.latch.rel.registry.acquires"),
            2 * (heaps + btrees));
}

TEST(RelLatchTest, ReleaseWakesOnlyTheLatchsOwnWaiters) {
  // A holds X; B blocks on X; meanwhile C takes and releases Y 10,000
  // times. B must stay blocked until A releases and then proceed, and it
  // must not have been woken by C's releases: one wait, one wakeup.
  BoundLatches b;
  const RelFileId x{kSmgrDisk, 1};
  const RelFileId y{kSmgrDisk, 2};  // another shard
  const uint64_t waits_before = b.LatchWaits();
  std::atomic<bool> a_holds{false};
  std::atomic<bool> c_done{false};
  std::atomic<bool> a_released{false};
  std::atomic<bool> b_acquired{false};
  std::atomic<bool> b_saw_release{false};
  std::atomic<long> b_switches{-1};
  WaitSlot b_slot;

  std::thread a([&] {
    b.latches.Lock(x, WaitEvent::kLatchRelHeap);
    a_holds.store(true);
    while (!c_done.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    a_released.store(true);
    b.latches.Unlock(x);
  });
  std::thread bt([&] {
    while (!a_holds.load()) std::this_thread::yield();
    SetCurrentWaitSlot(&b_slot);
    const long before = ThreadVoluntarySwitches();
    b.latches.Lock(x, WaitEvent::kLatchRelHeap);
    b_switches.store(ThreadVoluntarySwitches() - before);
    b_saw_release.store(a_released.load());
    b_acquired.store(true);
    b.latches.Unlock(x);
    SetCurrentWaitSlot(nullptr);
  });
  // B publishes its wait before it sleeps; bounded at ~10 s.
  bool b_blocked = false;
  for (int i = 0; i < 200000 && !b_blocked; ++i) {
    b_blocked = b_slot.Read().event == WaitEvent::kLatchRelHeap;
    if (!b_blocked) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::thread c([&] {
    for (int i = 0; i < 10000; ++i) {
      b.latches.Lock(y, WaitEvent::kLatchRelHeap);
      b.latches.Unlock(y);
      // Space the releases out, so a registry that woke B on each would
      // show it rather than coalesce the wakeups.
      std::this_thread::yield();
    }
  });
  c.join();
  const bool acquired_early = b_acquired.load();
  c_done.store(true);
  a.join();
  bt.join();

  EXPECT_TRUE(b_blocked) << "B never published its wait on X";
  EXPECT_FALSE(acquired_early) << "B took X while A held it";
  EXPECT_TRUE(b_acquired.load());
  EXPECT_TRUE(b_saw_release.load());
  EXPECT_EQ(b.LatchWaits() - waits_before, 1u);
  // Blocking once is one voluntary switch. A registry with one condition
  // variable for every latch woke B on C's releases: 681 to 19,407
  // switches in three runs.
  EXPECT_LT(b_switches.load(), 50);
}

TEST(RelLatchTest, ReentrantLockCountsOnlyTheOutermostAcquisition) {
  BoundLatches b;
  const RelFileId x{kSmgrDisk, 7};
  auto acquires = [&](const std::string& cls) {
    return b.Value("wait.latch.rel." + cls + ".acquires");
  };
  b.latches.Lock(x, WaitEvent::kLatchRelHeap);
  EXPECT_EQ(acquires("heap"), 1u);
  EXPECT_EQ(acquires("registry"), 1u);

  // Nested holds, of any kind, count nowhere.
  b.latches.Lock(x, WaitEvent::kLatchRelHeap);
  b.latches.Lock(x, WaitEvent::kLatchRelBtree);
  b.latches.Unlock(x);
  b.latches.Unlock(x);
  EXPECT_EQ(acquires("heap"), 1u);
  EXPECT_EQ(acquires("btree"), 0u);
  EXPECT_EQ(acquires("other"), 0u);
  EXPECT_EQ(acquires("registry"), 1u);

  // The outermost release takes the shard mutex once more.
  b.latches.Unlock(x);
  EXPECT_EQ(acquires("registry"), 2u);
  // A latch this thread does not hold is left alone.
  b.latches.Unlock(x);
  EXPECT_EQ(acquires("registry"), 2u);

  // X is free: another thread takes it without waiting.
  std::thread([&] {
    b.latches.Lock(x, WaitEvent::kLatchRelHeap);
    b.latches.Unlock(x);
  }).join();
  EXPECT_EQ(acquires("heap"), 2u);
  EXPECT_EQ(b.LatchWaits(), 0u);
}

// ---- B-tree walks -----------------------------------------------------------

TEST(BtreeScanTest, WalkerSeesEveryStableEntryOnceWhileAWriterSplits) {
  // One thread walks a whole B-tree again and again while another files
  // entries between the walker's until it owns 3,000 (splitting leaves),
  // then deletes them all (emptying leaves), and so on, merging underfull
  // pages every 500 writes, all on the same index. The walk holds the
  // latch for one leaf at a time, and every 32 entries it waits for 16
  // more writes, so the writer works between its leaves. Every walk must
  // be in strictly ascending (key, value) order, so no entry is seen
  // twice, and must hold each stable entry (never written during the
  // walk) exactly once. Replays under PGLO_TEST_SEED.
  const uint64_t seed = pglo::testing::TestSeed();
  SCOPED_TRACE("replay with PGLO_TEST_SEED=" + std::to_string(seed));
  constexpr uint64_t kStable = 2000;  // keys 0, 4, 8, ...; value 0
  constexpr int kWalks = 12;
  constexpr uint64_t kWrites = 15000;
  SmgrRegistry smgrs;
  ASSERT_OK(smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr)));
  BufferPool pool(&smgrs, 256);
  const RelFileId file{0, 1};
  ASSERT_OK(Btree::Create(&pool, file));
  Btree tree(&pool, file);
  for (uint64_t k = 0; k < kStable; ++k) ASSERT_OK(tree.Insert(k * 4, 0ull));
  ASSERT_OK_AND_ASSIGN(BlockNumber blocks_before, tree.NumBlocks());

  std::atomic<bool> walking{true};
  std::atomic<uint64_t> writes{0};
  std::atomic<int> failures{0};
  auto fail = [&](const std::string& what) {
    ADD_FAILURE() << what;
    ++failures;
  };
  std::thread writer([&] {
    Random rng(seed * 7919 + 1);
    std::vector<std::pair<uint64_t, uint64_t>> mine;
    uint64_t fresh = 1;
    bool growing = true;
    while (walking.load() && writes.load() < kWrites) {
      if (mine.size() == (growing ? 3000u : 0u)) growing = !growing;
      Status s;
      if (growing) {
        uint64_t key = rng.Uniform(kStable) * 4 + 1 + rng.Uniform(3);
        s = tree.Insert(key, fresh);
        mine.emplace_back(key, fresh++);
      } else {
        size_t i = rng.Uniform(mine.size());
        s = tree.Delete(mine[i].first, mine[i].second);
        mine[i] = mine.back();
        mine.pop_back();
      }
      if (s.ok() && writes.load() % 500 == 499) {
        s = tree.MergeUnderfull().status();
      }
      if (!s.ok()) {
        fail("writer: " + s.ToString());
        return;
      }
      writes.fetch_add(1);
    }
  });

  uint64_t writes_during_walks = 0;
  for (int w = 0; w < kWalks && failures.load() == 0; ++w) {
    uint64_t seen = 0, stable = 0;
    std::pair<uint64_t, uint64_t> prev;
    auto visit = [&](uint64_t key, uint64_t value) -> Result<bool> {
      std::pair<uint64_t, uint64_t> entry{key, value};
      if (seen++ > 0 && !(prev < entry)) {
        return Status::Corruption(
            "walk went from (" + std::to_string(prev.first) + ", " +
            std::to_string(prev.second) + ") to (" + std::to_string(key) +
            ", " + std::to_string(value) + ")");
      }
      prev = entry;
      if (value == 0) ++stable;
      if (seen % 32 == 0) {
        uint64_t want = std::min(kWrites, writes.load() + 16);
        while (writes.load() < want && failures.load() == 0) {
          std::this_thread::yield();
        }
      }
      return false;
    };
    uint64_t start = writes.load();
    Result<bool> walked = tree.Scan(0, ~0ull, visit);
    writes_during_walks += writes.load() - start;
    if (!walked.ok()) {
      fail("walk " + std::to_string(w) + ": " + walked.status().ToString());
    } else if (stable != kStable) {
      fail("walk " + std::to_string(w) + " saw " + std::to_string(stable) +
           " stable entries");
    }
  }
  walking.store(false);
  writer.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_GE(writes_during_walks, kWrites / 2);
  // The writer's entries outgrew the walker's leaves: they split.
  ASSERT_OK_AND_ASSIGN(BlockNumber blocks_after, tree.NumBlocks());
  EXPECT_GT(blocks_after, blocks_before);
  ASSERT_OK_AND_ASSIGN(uint64_t entries, tree.CheckStructure());
  EXPECT_GE(entries, kStable);
}

// ---- stat cells ----------------------------------------------------------

TEST(StatCellsTest, ConcurrentUpdatesFoldToTheSingleThreadedReference) {
  // Twice as many threads as cells, so every cell is shared.
  constexpr int kThreads = 2 * static_cast<int>(kThreadSlots);
  constexpr int kOps = 10000;
  // A spread over 40 buckets, different for every thread.
  auto sample = [](int t, int i) {
    return (uint64_t{1} << ((t + i) % 40)) + static_cast<uint64_t>(i * 7 + t);
  };
  auto run = [&](Counter* c, Histogram* h, int t) {
    for (int i = 0; i < kOps; ++i) {
      if (i % 2 == 0) {
        c->Inc();
      } else {
        c->Add(static_cast<uint64_t>(t + 1));
      }
      h->Record(sample(t, i));
    }
  };

  StatsRegistry reference;
  Counter* ref_c = reference.counter("cells.ops");
  Histogram* ref_h = reference.histogram("cells.lat_ns");
  for (int t = 0; t < kThreads; ++t) run(ref_c, ref_h, t);

  StatsRegistry concurrent;
  Counter* c = concurrent.counter("cells.ops");
  Histogram* h = concurrent.histogram("cells.lat_ns");
  auto run_all = [&](auto body) {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        body(t);
      });
    }
    go.store(true);
    for (auto& th : threads) th.join();
  };
  run_all([&](int t) { run(c, h, t); });

  EXPECT_EQ(c->value(), ref_c->value());
  EXPECT_EQ(h->count(), ref_h->count());
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kOps);
  EXPECT_EQ(h->sum_ns(), ref_h->sum_ns());
  EXPECT_EQ(h->min_ns(), ref_h->min_ns());
  EXPECT_EQ(h->max_ns(), ref_h->max_ns());
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(h->bucket(i), ref_h->bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(h->PercentileNs(50), ref_h->PercentileNs(50));
  EXPECT_EQ(h->PercentileNs(99), ref_h->PercentileNs(99));
  EXPECT_EQ(concurrent.Snapshot().ToJson(), reference.Snapshot().ToJson());

  concurrent.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum_ns(), 0u);
  EXPECT_EQ(h->min_ns(), 0u);
  EXPECT_EQ(h->max_ns(), 0u);
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(h->bucket(i), 0u) << "bucket " << i;
  }
  // Every cell was zeroed: one more update from each thread folds to
  // exactly those updates.
  run_all([&](int) {
    c->Inc();
    h->Record(5);
  });
  EXPECT_EQ(c->value(), uint64_t{kThreads});
  EXPECT_EQ(h->count(), uint64_t{kThreads});
  EXPECT_EQ(h->sum_ns(), 5u * kThreads);
  EXPECT_EQ(h->bucket(2), uint64_t{kThreads});
  EXPECT_EQ(h->min_ns(), 5u);
  EXPECT_EQ(h->max_ns(), 5u);
}

}  // namespace
}  // namespace pglo

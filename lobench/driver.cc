// One phase of one workload of the large-object benchmark (see run.py for
// the workloads, the metrics and why each workload exists).
//
//   lobench_driver --workload W --seed N --seconds S --mode M --episodes K
//                  --dir DIR
//
// Each of the K episodes sets up a fresh database and then does S seconds'
// worth of seeded work (the rates below were sized on a 4-core host).
//
// Modes:
//   plain   end-to-end samples only; nothing is traced.
//   traced  the same work with spans around every call into PgloClient,
//           Session, LoDescriptor and a forwarding StorageManager that holds
//           the workload's objects.
//   replay  the served workload (lo_churn) only: the same seeded
//           operations issued in-process through Sessions, traced — the
//           in-process half of the wire-cost estimate.
//
// Every configuration is the served one: group commit, flight recorder,
// 4096-frame pool, devices uncharged. The workload seed reaches only the
// generators below; the engine sees the operations they produce.
//
// Output, all under DIR: result.json (per episode: counts, set-up time,
// Stats() snapshots at the window edges, accessor deltas), one
// <series>.<episode>.f64 file of native doubles per latency series, and
// spans.bin when traced. The
// database lives in DIR/db and is removed before exit.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <barrier>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/json.h"
#include "common/random.h"
#include "db/database.h"
#include "server/server.h"
#include "smgr/smgr_registry.h"

namespace lobench {
namespace {

using pglo::Bytes;
using pglo::Database;
using pglo::LoDescriptor;
using pglo::LoSpec;
using pglo::Oid;
using pglo::PgloClient;
using pglo::Random;
using pglo::Result;
using pglo::Slice;
using pglo::Status;
using pglo::Whence;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 4;  // client threads / connections / sessions
constexpr size_t kPoolFrames = 4096;
constexpr size_t kBlock = 4096;  // frame and overwrite granularity

// lo_stream and lo_churn: each thread owns one f-chunk and one v-segment
// object of kBigObject bytes.
constexpr size_t kBigObject = 16u << 20;
constexpr size_t kFramesPerObject = kBigObject / kBlock;
constexpr size_t kStreamFramesPerTxn = 32;
constexpr size_t kSeqTxnsPerPass = kFramesPerObject / kStreamFramesPerTxn;
// A random pass reads as many frames as a sequential pass on v-segment but
// only a quarter as many on f-chunk, whose frames are several times
// cheaper. The frame and transaction medians then fall inside the
// v-segment sequential mode instead of in the gap between the two kinds.
constexpr size_t kFchunkRandomTxnsPerPass = kSeqTxnsPerPass / 4;
constexpr double kStreamRoundsPerSecond = 0.15;
constexpr uint64_t kChurnTxnsPerConnPerSecond = 45;
// Share of churn transactions that go to the f-chunk object (for the same
// reason: v-segment overwrites are the slower mode).
constexpr double kChurnFchunkShare = 0.75;
constexpr int kChurnWritesPerTxn = 8;
constexpr size_t kScanRead = 64 * 1024;

// Floor on a connection's transactions in one episode, so that even a short
// run has the 1,000+ transactions a p99 needs.
constexpr uint64_t kMinTxnsPerConn = 275;

constexpr size_t kPopulateWrite = 64 * 1024;
constexpr size_t kPopulateCommitEvery = 2u << 20;
constexpr uint8_t kTracedSmgrSlot = 3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- seeded content oracle -------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Expected contents of every object: a pure function of (seed, object,
/// 4 KB block version, byte offset), so the oracle holds only a version per
/// block, never the bytes.
class Oracle {
 public:
  Oracle(uint64_t seed, size_t objects, size_t blocks_per_object)
      : seed_(seed), versions_(objects) {
    for (auto& v : versions_) v.assign(blocks_per_object, 0);
  }

  /// Fills `out` with the expected bytes [off, off + n) of `obj`.
  void Expected(size_t obj, uint64_t off, size_t n, uint8_t* out) const {
    const std::vector<uint32_t>& vers = versions_[obj];
    while (n > 0) {
      uint64_t blk = off / kBlock;
      size_t take = std::min<uint64_t>(n, (blk + 1) * kBlock - off);
      Fill(Key(obj, vers[blk]), off, take, out);
      off += take;
      out += take;
      n -= take;
    }
  }

  /// Owner thread only: block `blk` of `obj` is being overwritten.
  void BumpVersion(size_t obj, uint64_t blk) { ++versions_[obj][blk]; }

 private:
  uint64_t Key(size_t obj, uint32_t ver) const {
    return Mix(seed_ ^ Mix((static_cast<uint64_t>(obj) << 32) | ver));
  }
  static void Fill(uint64_t key, uint64_t q, size_t n, uint8_t* d) {
    auto byte_at = [key](uint64_t p) {
      return static_cast<uint8_t>(Mix(key ^ (p >> 3)) >> (8 * (p & 7)));
    };
    while (n > 0 && (q & 7) != 0) {
      *d++ = byte_at(q++);
      --n;
    }
    while (n >= 8) {  // little-endian word = 8 consecutive byte_at values
      uint64_t w = Mix(key ^ (q >> 3));
      std::memcpy(d, &w, 8);
      d += 8;
      q += 8;
      n -= 8;
    }
    while (n > 0) {
      *d++ = byte_at(q++);
      --n;
    }
  }

  uint64_t seed_;
  std::vector<std::vector<uint32_t>> versions_;
};

// --- in-memory span recorder ------------------------------------------------

enum SpanName : uint16_t {
  kClientBegin,
  kClientOpen,
  kClientSeek,
  kClientRead,
  kClientWrite,
  kClientCommit,
  kClientAbort,
  kSessionBegin,
  kLoOpen,
  kLoSeek,
  kLoRead,
  kLoWrite,
  kSessionCommit,
  kSessionAbort,
  kSmgrRead,
  kSmgrWrite,
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "client.begin",   "client.lo_open", "client.lo_seek", "client.lo_read",
    "client.lo_write", "client.commit", "client.abort",   "session.begin",
    "lo.open",        "lo.seek",        "lo.read",        "lo.write",
    "session.commit", "session.abort",  "smgr.disk.read", "smgr.disk.write",
};

/// One completed span. `parent` indexes the enclosing span of the same
/// thread (-1 at top level); `txn` is the recording thread's transaction
/// sequence number, shared by every span of one request on that thread;
/// `detail` is the block count of an smgr call.
struct SpanRec {
  uint16_t name;
  uint16_t thread;
  int32_t parent;
  uint32_t txn;
  uint32_t detail;
  int64_t start_ns;
  int64_t dur_ns;
};
static_assert(sizeof(SpanRec) == 32);

/// Spans stay in per-thread memory while the phase runs and are written
/// out once at the end, so recording never does I/O.
class Tracer {
 public:
  struct ThreadBuf {
    uint16_t thread = 0;
    uint32_t txn = 0;
    std::vector<SpanRec> spans;
    std::vector<int32_t> open;
  };

  ThreadBuf* Local() {
    thread_local ThreadBuf* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<ThreadBuf>());
      local = bufs_.back().get();
      local->thread = static_cast<uint16_t>(bufs_.size() - 1);
      local->spans.reserve(1 << 16);
    }
    return local;
  }

  /// Writes every span, parents rebased to file-wide indices. Call after
  /// every recording thread has finished.
  Status WriteTo(const std::string& path, uint64_t* count) {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IOError("cannot write " + path);
    int64_t base = 0;
    for (auto& buf : bufs_) {
      for (SpanRec& r : buf->spans) {
        if (r.parent >= 0) r.parent = static_cast<int32_t>(r.parent + base);
      }
      if (!buf->spans.empty() &&
          std::fwrite(buf->spans.data(), sizeof(SpanRec), buf->spans.size(),
                      f) != buf->spans.size()) {
        std::fclose(f);
        return Status::IOError("short write to " + path);
      }
      base += static_cast<int64_t>(buf->spans.size());
    }
    *count = static_cast<uint64_t>(base);
    return std::fclose(f) == 0 ? Status::OK()
                               : Status::IOError("close " + path);
  }

 private:
  std::mutex mu_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

Tracer* g_tracer = nullptr;  // set for traced and replay phases only

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Span {
 public:
  explicit Span(SpanName name, uint32_t detail = 0) {
    if (g_tracer == nullptr) return;
    buf_ = g_tracer->Local();
    idx_ = static_cast<int32_t>(buf_->spans.size());
    int32_t parent = buf_->open.empty() ? -1 : buf_->open.back();
    buf_->spans.push_back(SpanRec{name, buf_->thread, parent, buf_->txn,
                                  detail, NowNs(), 0});
    buf_->open.push_back(idx_);
  }
  ~Span() {
    if (buf_ == nullptr) return;
    SpanRec& r = buf_->spans[static_cast<size_t>(idx_)];
    r.dur_ns = NowNs() - r.start_ns;
    buf_->open.pop_back();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  int32_t idx_ = 0;
};

void SetTraceTxn(uint32_t txn) {
  if (g_tracer != nullptr) g_tracer->Local()->txn = txn;
}

/// Forwards every call to the disk storage manager, timing block reads and
/// writes. Registered in a free SmgrRegistry slot for traced phases; the
/// workload's objects are created there, so their page traffic (and only
/// theirs) passes through it.
class TracedSmgr : public pglo::StorageManager {
 public:
  explicit TracedSmgr(pglo::StorageManager* base) : base_(base) {}

  Status CreateFile(Oid relfile) override { return base_->CreateFile(relfile); }
  Status DropFile(Oid relfile) override { return base_->DropFile(relfile); }
  bool FileExists(Oid relfile) override { return base_->FileExists(relfile); }
  Result<pglo::BlockNumber> NumBlocks(Oid relfile) override {
    return base_->NumBlocks(relfile);
  }
  Status ReadBlock(Oid relfile, pglo::BlockNumber block,
                   uint8_t* buf) override {
    Span span(kSmgrRead, 1);
    return base_->ReadBlock(relfile, block, buf);
  }
  Status WriteBlock(Oid relfile, pglo::BlockNumber block,
                    const uint8_t* buf) override {
    Span span(kSmgrWrite, 1);
    return base_->WriteBlock(relfile, block, buf);
  }
  Status ReadBlocks(Oid relfile, pglo::BlockNumber start, uint32_t nblocks,
                    uint8_t* buf) override {
    Span span(kSmgrRead, nblocks);
    return base_->ReadBlocks(relfile, start, nblocks, buf);
  }
  Status WriteBlocks(Oid relfile, pglo::BlockNumber start, uint32_t nblocks,
                     const uint8_t* buf) override {
    Span span(kSmgrWrite, nblocks);
    return base_->WriteBlocks(relfile, start, nblocks, buf);
  }
  Status Sync(Oid relfile) override { return base_->Sync(relfile); }
  Result<uint64_t> StorageBytes(Oid relfile) override {
    return base_->StorageBytes(relfile);
  }
  std::string name() const override { return "lobench-traced-disk"; }

 private:
  pglo::StorageManager* base_;
};

// --- the two ways to issue large-object operations --------------------------

/// The operations a workload issues, over the wire or in-process. Handles
/// die with the transaction, as on both real interfaces.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Status Begin() = 0;
  virtual Result<uint32_t> Open(uint64_t oid, bool writable) = 0;
  virtual Result<uint64_t> Seek(uint32_t h, int64_t off, Whence whence) = 0;
  /// Reads up to `n` bytes into `buf`; returns the count.
  virtual Result<size_t> Read(uint32_t h, size_t n, uint8_t* buf) = 0;
  virtual Status Write(uint32_t h, Slice data) = 0;
  virtual Status Commit() = 0;
  virtual Status Abort() = 0;
};

class ClientBackend : public Backend {
 public:
  explicit ClientBackend(std::unique_ptr<PgloClient> client)
      : client_(std::move(client)) {}
  ~ClientBackend() override { (void)client_->Bye(); }

  Status Begin() override {
    Span span(kClientBegin);
    return client_->Begin();
  }
  Result<uint32_t> Open(uint64_t oid, bool writable) override {
    Span span(kClientOpen);
    return client_->OpenLo(oid, writable);
  }
  Result<uint64_t> Seek(uint32_t h, int64_t off, Whence whence) override {
    Span span(kClientSeek);
    return client_->Seek(h, off, whence);
  }
  Result<size_t> Read(uint32_t h, size_t n, uint8_t* buf) override {
    Result<Bytes> data = [&] {
      Span span(kClientRead);
      return client_->Read(h, static_cast<uint32_t>(n));
    }();
    if (!data.ok()) return data.status();
    if (data.value().size() > n) return Status::Internal("oversized reply");
    std::memcpy(buf, data.value().data(), data.value().size());
    return data.value().size();
  }
  Status Write(uint32_t h, Slice data) override {
    Span span(kClientWrite);
    return client_->Write(h, data);
  }
  Status Commit() override {
    Span span(kClientCommit);
    return client_->Commit().status();
  }
  Status Abort() override {
    Span span(kClientAbort);
    return client_->Abort();
  }

 private:
  std::unique_ptr<PgloClient> client_;
};

class SessionBackend : public Backend {
 public:
  explicit SessionBackend(Database* db) : session_(db->Connect()) {}

  Status Begin() override {
    Span span(kSessionBegin);
    session_->Begin();
    handles_.clear();
    return Status::OK();
  }
  Result<uint32_t> Open(uint64_t oid, bool writable) override {
    Span span(kLoOpen);
    Result<LoDescriptor*> d = session_->OpenLo(static_cast<Oid>(oid), writable);
    if (!d.ok()) return d.status();
    handles_.push_back(d.value());
    return static_cast<uint32_t>(handles_.size() - 1);
  }
  Result<uint64_t> Seek(uint32_t h, int64_t off, Whence whence) override {
    PGLO_ASSIGN_OR_RETURN(LoDescriptor * d, Get(h));
    Span span(kLoSeek);
    return d->Seek(off, whence);
  }
  Result<size_t> Read(uint32_t h, size_t n, uint8_t* buf) override {
    PGLO_ASSIGN_OR_RETURN(LoDescriptor * d, Get(h));
    Span span(kLoRead);
    return d->Read(n, buf);
  }
  Status Write(uint32_t h, Slice data) override {
    PGLO_ASSIGN_OR_RETURN(LoDescriptor * d, Get(h));
    Span span(kLoWrite);
    return d->Write(data);
  }
  Status Commit() override {
    Span span(kSessionCommit);
    return session_->Commit().status();
  }
  Status Abort() override {
    if (!session_->in_txn()) return Status::OK();
    Span span(kSessionAbort);
    return session_->Abort();
  }

 private:
  Result<LoDescriptor*> Get(uint32_t h) const {
    if (h >= handles_.size()) return Status::InvalidArgument("bad handle");
    return handles_[h];
  }

  std::unique_ptr<pglo::Session> session_;
  std::vector<LoDescriptor*> handles_;
};

// --- per-thread results ------------------------------------------------------

struct ThreadResult {
  std::vector<double> txn_ms;
  std::vector<double> frame_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t txns = 0;  ///< transactions completed without failure
  uint64_t frames = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t scan_bytes = 0;
  uint64_t scan_frames = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Times one data frame (a Read or Write call) into `r.frame_us`.
template <typename F>
auto TimedFrame(ThreadResult& r, F&& call) {
  Clock::time_point t0 = Clock::now();
  auto out = call();
  r.frame_us.push_back(
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  ++r.frames;
  return out;
}

double Ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- arguments and environment -----------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "plain";
  int episodes = 1;
  std::string dir;
};

bool Served(const Args& a) { return a.workload == "lo_churn"; }
bool Traced(const Args& a) { return a.mode != "plain"; }
/// Whether operations go over the wire in this phase.
bool Wire(const Args& a) { return Served(a) && a.mode != "replay"; }

struct Population {
  std::vector<uint64_t> oids;    ///< by object index
  std::vector<size_t> sizes;     ///< populated size, by object index
  std::vector<LoSpec> specs;
  std::vector<int> owner;        ///< owning thread, by object index
  uint64_t bytes = 0;
};

Population PlanPopulation(const Args& a) {
  Population p;
  uint8_t smgr = Traced(a) ? kTracedSmgrSlot
                           : static_cast<uint8_t>(pglo::kSmgrDisk);
  for (int t = 0; t < kThreads; ++t) {
    for (pglo::StorageKind kind :
         {pglo::StorageKind::kFChunk, pglo::StorageKind::kVSegment}) {
      LoSpec spec;
      spec.kind = kind;
      spec.smgr = smgr;
      p.specs.push_back(spec);
      p.sizes.push_back(kBigObject);
      p.owner.push_back(t);
    }
  }
  for (size_t s : p.sizes) p.bytes += s;
  p.oids.assign(p.sizes.size(), 0);
  return p;
}

/// The database, its population and (for the served workload) the listening
/// server: everything set-up builds and the measured window uses.
struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<pglo::PgloServer> server;
  Population pop;
};

Status PopulateThread(Database* db, const Oracle& oracle, Population* pop,
                      int t) {
  auto session = db->Connect();
  Bytes buf(kPopulateWrite);
  for (size_t i = 0; i < pop->sizes.size(); ++i) {
    if (pop->owner[i] != t) continue;
    session->Begin();
    Result<Oid> oid = session->CreateLo(pop->specs[i]);
    if (!oid.ok()) return oid.status();
    pop->oids[i] = oid.value();
    size_t off = 0;
    while (off < pop->sizes[i]) {
      if (!session->in_txn()) session->Begin();
      PGLO_ASSIGN_OR_RETURN(LoDescriptor * d,
                            session->OpenLo(oid.value(), /*writable=*/true));
      PGLO_RETURN_IF_ERROR(d->Seek(static_cast<int64_t>(off), Whence::kSet)
                               .status());
      size_t batch_end = std::min(pop->sizes[i], off + kPopulateCommitEvery);
      while (off < batch_end) {
        size_t n = std::min(kPopulateWrite, batch_end - off);
        oracle.Expected(i, off, n, buf.data());
        PGLO_RETURN_IF_ERROR(d->Write(Slice(buf.data(), n)));
        off += n;
      }
      PGLO_RETURN_IF_ERROR(session->Commit().status());
    }
    if (session->in_txn()) PGLO_RETURN_IF_ERROR(session->Commit().status());
  }
  return Status::OK();
}

Status Setup(const Args& a, Oracle& oracle, Env* env) {
  std::string db_dir = a.dir + "/db";
  std::error_code ec;
  std::filesystem::remove_all(db_dir, ec);
  if (ec) {
    return Status::IOError("cannot clear " + db_dir + ": " + ec.message());
  }
  pglo::DatabaseOptions options;
  options.dir = db_dir;
  options.buffer_pool_frames = kPoolFrames;
  options.charge_devices = false;
  options.group_commit = true;
  options.enable_stats = true;
  options.enable_flight_recorder = true;
  env->db = std::make_unique<Database>();
  PGLO_RETURN_IF_ERROR(env->db->Open(options));
  if (Traced(a)) {
    PGLO_ASSIGN_OR_RETURN(pglo::StorageManager * disk,
                          env->db->smgrs().Get(pglo::kSmgrDisk));
    PGLO_RETURN_IF_ERROR(env->db->smgrs().Register(
        kTracedSmgrSlot, std::make_unique<TracedSmgr>(disk)));
  }
  env->pop = PlanPopulation(a);
  std::vector<Status> status(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        status[t] = PopulateThread(env->db.get(), oracle, &env->pop, t);
      });
    }
    for (auto& th : threads) th.join();
  }
  for (const Status& s : status) PGLO_RETURN_IF_ERROR(s);
  if (Wire(a)) {
    pglo::ServerOptions server_options;
    env->server =
        std::make_unique<pglo::PgloServer>(env->db.get(), nullptr,
                                           server_options);
    PGLO_RETURN_IF_ERROR(env->server->Start());
  }
  return Status::OK();
}

Status Teardown(const Args& a, Env* env) {
  if (env->server != nullptr) env->server->Stop();
  env->server.reset();
  Status s = env->db != nullptr ? env->db->Close() : Status::OK();
  env->db.reset();
  std::error_code ec;
  std::filesystem::remove_all(a.dir + "/db", ec);
  if (s.ok() && ec) {
    s = Status::IOError("cannot remove database: " + ec.message());
  }
  return s;
}

// --- workloads ---------------------------------------------------------------

/// Seeded generator stream of thread `t`. The seed enters only here and in
/// the oracle's content key.
Random ThreadRng(const Args& a, int t) {
  return Random(Mix(a.seed * 0x100000001b3ull + static_cast<uint64_t>(t) + 1));
}

bool Mismatch(const Oracle& oracle, size_t obj, uint64_t off,
              const uint8_t* got, size_t n, std::vector<uint8_t>& scratch) {
  scratch.resize(n);
  oracle.Expected(obj, off, n, scratch.data());
  return std::memcmp(got, scratch.data(), n) != 0;
}

/// Failure text for a failed call; notes a lost connection in `*dead`.
std::string Err(const char* what, const Status& s, bool* dead) {
  if (s.IsIOError()) *dead = true;
  return std::string(what) + ": " + s.ToString();
}

std::vector<size_t> Owned(const Population& pop, int t) {
  std::vector<size_t> own;
  for (size_t i = 0; i < pop.owner.size(); ++i) {
    if (pop.owner[i] == t) own.push_back(i);
  }
  return own;
}

/// Ends a transaction attempt: a failure rolls back (best effort) and is
/// counted. Returns false when the connection is gone.
bool Finish(Backend& be, ThreadResult& r, const std::string& err, bool dead) {
  if (err.empty()) return true;
  (void)be.Abort();
  r.Fail(err);
  return !dead;
}

/// lo_stream, one session: for each owned object, a full sequential pass
/// then a random-frame pass, each as read-only transactions of 32 frames.
void StreamThread(const Args& a, const Population& pop, const Oracle& oracle,
                  int t, std::barrier<>& kind_done, Backend& be,
                  ThreadResult& r) {
  Random rng = ThreadRng(a, t);
  std::vector<size_t> own = Owned(pop, t);
  uint64_t rounds = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(a.seconds * kStreamRoundsPerSecond)));
  std::vector<uint8_t> buf(kBlock), scratch;
  std::vector<uint64_t> frames(kStreamFramesPerTxn);
  uint32_t seq = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    for (size_t obj : own) {
      for (int random_pass = 0; random_pass < 2; ++random_pass) {
        bool fchunk = pop.specs[obj].kind == pglo::StorageKind::kFChunk;
        size_t pass_txns =
            random_pass && fchunk ? kFchunkRandomTxnsPerPass : kSeqTxnsPerPass;
        for (size_t w = 0; w < pass_txns; ++w) {
          for (size_t f = 0; f < kStreamFramesPerTxn; ++f) {
            frames[f] = random_pass ? rng.Uniform(kFramesPerObject)
                                    : w * kStreamFramesPerTxn + f;
          }
          SetTraceTxn(seq++);
          ++r.attempted;
          bool dead = false;
          Clock::time_point t0 = Clock::now();
          std::string err = [&]() -> std::string {
            Status s = be.Begin();
            if (!s.ok()) return Err("begin", s, &dead);
            Result<uint32_t> h = be.Open(pop.oids[obj], false);
            if (!h.ok()) return Err("open", h.status(), &dead);
            for (size_t f = 0; f < kStreamFramesPerTxn; ++f) {
              uint64_t off = frames[f] * kBlock;
              if (random_pass || f == 0) {
                Result<uint64_t> pos = be.Seek(
                    h.value(), static_cast<int64_t>(off), Whence::kSet);
                if (!pos.ok()) return Err("seek", pos.status(), &dead);
              }
              Result<size_t> rd = TimedFrame(
                  r, [&] { return be.Read(h.value(), kBlock, buf.data()); });
              if (!rd.ok()) return Err("read", rd.status(), &dead);
              if (rd.value() != kBlock) {
                return "short read " + std::to_string(rd.value());
              }
              if (Mismatch(oracle, obj, off, buf.data(), kBlock, scratch)) {
                return "read bytes differ from oracle at object " +
                       std::to_string(obj) + " offset " + std::to_string(off);
              }
              r.bytes_read += kBlock;
            }
            s = be.Abort();
            return s.ok() ? "" : Err("abort", s, &dead);
          }();
          double ms = Ms(t0);
          // Sessions have no connection to lose: keep going, so every
          // thread reaches each barrier below.
          (void)Finish(be, r, err, dead);
          if (!err.empty()) continue;
          ++r.txns;
          r.txn_ms.push_back(ms);
        }
      }
      // All threads read f-chunk objects together, then v-segment ones, so
      // each kind's frames contend only with frames of the same kind.
      kind_done.arrive_and_wait();
    }
  }
}

/// lo_churn, one connection, first phase: a fixed count of transactions,
/// each overwriting 8 random 4 KB blocks of one owned object.
void ChurnThread(const Args& a, const Population& pop, Oracle& oracle, int t,
                 Backend& be, ThreadResult& r) {
  Random rng = ThreadRng(a, t);
  std::vector<size_t> own = Owned(pop, t);
  uint64_t txns = std::max<uint64_t>(
      kMinTxnsPerConn,
      static_cast<uint64_t>(a.seconds * kChurnTxnsPerConnPerSecond));
  std::vector<uint8_t> data(kBlock);
  std::vector<uint64_t> blocks(kChurnWritesPerTxn);
  for (uint64_t n = 0; n < txns; ++n) {
    size_t obj = own[rng.NextDouble() < kChurnFchunkShare ? 0 : 1];
    for (uint64_t& b : blocks) b = rng.Uniform(kFramesPerObject);
    SetTraceTxn(static_cast<uint32_t>(n));
    ++r.attempted;
    bool dead = false;
    Clock::time_point t0 = Clock::now();
    std::string err = [&]() -> std::string {
      Status s = be.Begin();
      if (!s.ok()) return Err("begin", s, &dead);
      Result<uint32_t> h = be.Open(pop.oids[obj], true);
      if (!h.ok()) return Err("open", h.status(), &dead);
      for (uint64_t blk : blocks) {
        Result<uint64_t> pos = be.Seek(
            h.value(), static_cast<int64_t>(blk * kBlock), Whence::kSet);
        if (!pos.ok()) return Err("seek", pos.status(), &dead);
        // The owner is the object's only reader until the scan, so the
        // oracle may move ahead of the commit.
        oracle.BumpVersion(obj, blk);
        oracle.Expected(obj, blk * kBlock, kBlock, data.data());
        s = TimedFrame(r, [&] { return be.Write(h.value(), Slice(data)); });
        if (!s.ok()) return Err("write", s, &dead);
      }
      s = be.Commit();
      return s.ok() ? "" : Err("commit", s, &dead);
    }();
    double ms = Ms(t0);
    if (!Finish(be, r, err, dead)) break;
    if (!err.empty()) continue;
    ++r.txns;
    r.bytes_written += kChurnWritesPerTxn * kBlock;
    r.txn_ms.push_back(ms);
  }
}

/// lo_churn, second phase: reads every owned object whole, in 64 KB reads,
/// and compares it with the oracle.
void ScanThread(const Population& pop, const Oracle& oracle, int t,
                Backend& be, ThreadResult& r) {
  std::vector<uint8_t> buf(kScanRead), scratch;
  for (size_t obj : Owned(pop, t)) {
    ++r.attempted;
    bool dead = false;
    std::string err = [&]() -> std::string {
      Status s = be.Begin();
      if (!s.ok()) return Err("begin", s, &dead);
      Result<uint32_t> h = be.Open(pop.oids[obj], false);
      if (!h.ok()) return Err("open", h.status(), &dead);
      for (uint64_t off = 0; off < pop.sizes[obj];) {
        Result<size_t> rd = be.Read(h.value(), kScanRead, buf.data());
        if (!rd.ok()) return Err("scan read", rd.status(), &dead);
        if (rd.value() != std::min<uint64_t>(kScanRead, pop.sizes[obj] - off)) {
          return "short scan read " + std::to_string(rd.value());
        }
        if (Mismatch(oracle, obj, off, buf.data(), rd.value(), scratch)) {
          return "scanned bytes differ from oracle at object " +
                 std::to_string(obj) + " offset " + std::to_string(off);
        }
        off += rd.value();
        r.scan_bytes += rd.value();
        ++r.scan_frames;
      }
      s = be.Abort();
      return s.ok() ? "" : Err("abort", s, &dead);
    }();
    if (!Finish(be, r, err, dead)) break;
  }
}

// --- the measured window -----------------------------------------------------

struct Window {
  std::vector<ThreadResult> results{kThreads};
  double run_s = 0;   ///< first phase: start to last thread done
  double scan_s = 0;  ///< lo_churn scan phase
  std::string stats_before, stats_after;
  uint64_t commits_engine = 0;  ///< commit-time ticks the engine issued
  uint64_t fsyncs = 0;
  uint64_t batches = 0;
  uint64_t batch_txns = 0;
  uint64_t frames_in = 0;
};

std::unique_ptr<Backend> MakeBackend(const Args& a, Env& env,
                                     std::string* err) {
  if (!Wire(a)) return std::make_unique<SessionBackend>(env.db.get());
  auto client =
      PgloClient::Connect("127.0.0.1", env.server->port(), "lobench");
  if (!client.ok()) {
    *err = "connect: " + client.status().ToString();
    return nullptr;
  }
  return std::make_unique<ClientBackend>(std::move(client).value());
}

Window Measure(const Args& a, Env& env, Oracle& oracle) {
  Window w;
  Database& db = *env.db;
  std::latch ready(kThreads), go(1), first_done(kThreads), scan_go(1);
  std::barrier<> kind_done(kThreads);
  std::vector<std::string> connect_err(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ThreadResult& r = w.results[t];
      std::unique_ptr<Backend> be = MakeBackend(a, env, &connect_err[t]);
      ready.count_down();
      go.wait();
      if (be == nullptr) {
        r.Fail(connect_err[t]);
        kind_done.arrive_and_drop();
        first_done.count_down();
        return;
      }
      if (a.workload == "lo_stream") {
        StreamThread(a, env.pop, oracle, t, kind_done, *be, r);
      } else {
        ChurnThread(a, env.pop, oracle, t, *be, r);
      }
      first_done.count_down();
      if (a.workload == "lo_churn") {
        scan_go.wait();
        ScanThread(env.pop, oracle, t, *be, r);
      }
    });
  }
  ready.wait();
  db.ResetStats();  // quiesced: every client is connected and waiting
  pglo::StatsSnapshot before = db.Stats();
  uint64_t now0 = db.Now();
  uint64_t fsync0 = db.txns().commit_log().fsync_count();
  size_t groups0 = db.txns().group_sizes().size();
  Clock::time_point t0 = Clock::now();
  go.count_down();
  first_done.wait();
  Clock::time_point t1 = Clock::now();
  w.run_s = Seconds(t1 - t0);
  if (a.workload == "lo_churn") {
    Clock::time_point s0 = Clock::now();
    scan_go.count_down();
    for (auto& th : threads) th.join();
    w.scan_s = Seconds(Clock::now() - s0);
  } else {
    for (auto& th : threads) th.join();
  }
  pglo::StatsSnapshot after = db.Stats();
  w.stats_before = before.ToJson();
  w.stats_after = after.ToJson();
  w.commits_engine = db.Now() - now0;
  w.fsyncs = db.txns().commit_log().fsync_count() - fsync0;
  const std::vector<uint32_t>& groups = db.txns().group_sizes();
  for (size_t i = groups0; i < groups.size(); ++i) {
    ++w.batches;
    w.batch_txns += groups[i];
  }
  w.frames_in =
      after.Value("server.frames.in") - before.Value("server.frames.in");
  return w;
}

// --- output ------------------------------------------------------------------

Status WriteSeries(const std::string& path,
                   const std::vector<ThreadResult>& results,
                   std::vector<double> ThreadResult::*series) {
  std::vector<double> all;
  for (const ThreadResult& r : results) {
    all.insert(all.end(), (r.*series).begin(), (r.*series).end());
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  size_t n = all.empty() ? 0 : std::fwrite(all.data(), 8, all.size(), f);
  bool ok = n == all.size();
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("short write to " + path);
}

/// Writes one episode's counts, Stats() snapshots and accessor deltas.
void WriteEpisode(pglo::JsonWriter& j, double setup_s, const Window& w,
                  const Status& close) {
  ThreadResult total;
  for (const ThreadResult& r : w.results) {
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.txns += r.txns;
    total.frames += r.frames;
    total.bytes_read += r.bytes_read;
    total.bytes_written += r.bytes_written;
    total.scan_bytes += r.scan_bytes;
    total.scan_frames += r.scan_frames;
    for (const std::string& e : r.errors) {
      if (total.errors.size() < 5) total.errors.push_back(e);
    }
  }
  if (!close.ok()) total.Fail("close: " + close.ToString());
  j.BeginObject();
  j.Key("setup_s"); j.Double(setup_s);
  j.Key("run_s"); j.Double(w.run_s);
  j.Key("scan_s"); j.Double(w.scan_s);
  j.Key("attempted"); j.Uint(total.attempted);
  j.Key("failed"); j.Uint(total.failed);
  j.Key("errors");
  j.BeginArray();
  for (const std::string& e : total.errors) j.String(e);
  j.EndArray();
  j.Key("txns"); j.Uint(total.txns);
  j.Key("frames"); j.Uint(total.frames);
  j.Key("bytes_read"); j.Uint(total.bytes_read);
  j.Key("bytes_written"); j.Uint(total.bytes_written);
  j.Key("scan_bytes"); j.Uint(total.scan_bytes);
  j.Key("scan_frames"); j.Uint(total.scan_frames);
  j.Key("engine_commits"); j.Uint(w.commits_engine);
  j.Key("fsyncs"); j.Uint(w.fsyncs);
  j.Key("batches"); j.Uint(w.batches);
  j.Key("batch_txns"); j.Uint(w.batch_txns);
  j.Key("frames_in"); j.Uint(w.frames_in);
  j.Key("stats_before"); j.Raw(w.stats_before);
  j.Key("stats_after"); j.Raw(w.stats_after);
  j.EndObject();
}

int Run(const Args& a) {
  std::error_code ec;
  std::filesystem::create_directories(a.dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", a.dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Population plan = PlanPopulation(a);
  Tracer tracer;
  if (Traced(a)) g_tracer = &tracer;

  pglo::JsonWriter j;
  j.BeginObject();
  j.Key("workload"); j.String(a.workload);
  j.Key("mode"); j.String(a.mode);
  j.Key("seed"); j.Uint(a.seed);
  j.Key("build_type"); j.String(LOBENCH_BUILD_TYPE);
  j.Key("compiler"); j.String(__VERSION__);
#ifdef NDEBUG
  j.Key("ndebug"); j.Bool(true);
#else
  j.Key("ndebug"); j.Bool(false);
#endif
  j.Key("threads"); j.Int(kThreads);
  j.Key("pool_bytes"); j.Uint(kPoolFrames * pglo::kPageSize);
  j.Key("population_bytes"); j.Uint(plan.bytes);
  j.Key("span_names");
  j.BeginArray();
  for (const char* n : kSpanNames) j.String(n);
  j.EndArray();

  // Each episode sets up from an empty directory and runs the same seeded
  // inputs, so episodes are replicas of one another.
  using R = ThreadResult;
  const std::pair<const char*, std::vector<double> R::*> kSeries[] = {
      {"txn_ms", &R::txn_ms},
      {"frame_us", &R::frame_us},
  };
  j.Key("episodes");
  j.BeginArray();
  for (int e = 0; e < a.episodes; ++e) {
    Oracle oracle(a.seed, plan.sizes.size(), kFramesPerObject);
    Env env;
    Clock::time_point t0 = Clock::now();
    Status s = Setup(a, oracle, &env);
    double setup_s = Seconds(Clock::now() - t0);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.ToString().c_str());
      return 1;
    }
    Window w = Measure(a, env, oracle);
    Status close = Teardown(a, &env);
    for (const auto& [name, member] : kSeries) {
      if (s.ok()) {
        s = WriteSeries(a.dir + "/" + name + "." + std::to_string(e) + ".f64",
                        w.results, member);
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "output: %s\n", s.ToString().c_str());
      return 1;
    }
    WriteEpisode(j, setup_s, w, close);
  }
  j.EndArray();
  g_tracer = nullptr;

  uint64_t span_count = 0;
  if (Traced(a)) {
    Status s = tracer.WriteTo(a.dir + "/spans.bin", &span_count);
    if (!s.ok()) {
      std::fprintf(stderr, "output: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  j.Key("spans"); j.Uint(span_count);
  j.EndObject();
  std::ofstream out(a.dir + "/result.json");
  out << std::move(j).Take() << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write result.json\n");
    return 1;
  }
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--mode") {
      a->mode = v;
    } else if (k == "--episodes") {
      a->episodes = std::atoi(v.c_str());
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  bool workload_ok = a->workload == "lo_stream" || a->workload == "lo_churn";
  bool mode_ok = a->mode == "plain" || a->mode == "traced" ||
                 (a->mode == "replay" && Served(*a));
  return argc % 2 == 1 && workload_ok && mode_ok && !a->dir.empty() &&
         a->episodes >= 1 && a->seconds > 0;
}

}  // namespace
}  // namespace lobench

int main(int argc, char** argv) {
  lobench::Args args;
  if (!lobench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lobench_driver --workload lo_stream|lo_churn "
                 "--seed N --seconds S --mode plain|traced|replay "
                 "--episodes K --dir DIR\n");
    return 2;
  }
  return lobench::Run(args);
}

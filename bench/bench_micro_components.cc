// Wall-clock micro-benchmarks of the individual substrates (google
// benchmark). Unlike the figure benches — which report deterministic
// *simulated* seconds — these measure the real CPU cost of this
// implementation's data structures.
//
// Wired into the shared BenchRun harness: accepts the common flags
// (--quick/--json=/--no-json/--trace=/--profile) and emits a
// BENCH_micro[_quick].json whose rows carry wall-clock values only —
// deliberately no "simulated_seconds", so bench_compare never treats
// host-machine noise as a regression.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench/harness.h"

#include "btree/btree.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "compress/lzss.h"
#include "compress/rle.h"
#include "db/database.h"
#include "heap/heap_class.h"
#include "obs/flight_recorder.h"
#include "smgr/mm_smgr.h"
#include "storage/page.h"
#include "storage/rel_latch.h"
#include "workload/frames.h"

namespace pglo {
namespace {

void BM_SlottedPageAddItem(benchmark::State& state) {
  uint8_t buf[kPageSize];
  Bytes item(static_cast<size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    SlottedPage page(buf);
    page.Init();
    while (page.AddItem(Slice(item)).ok()) {
    }
    benchmark::DoNotOptimize(buf);
  }
}
BENCHMARK(BM_SlottedPageAddItem)->Arg(64)->Arg(512)->Arg(4000);

void BM_SlottedPageCompact(benchmark::State& state) {
  uint8_t buf[kPageSize];
  for (auto _ : state) {
    state.PauseTiming();
    SlottedPage page(buf);
    page.Init();
    Bytes item(128, 1);
    std::vector<uint16_t> slots;
    while (true) {
      Result<uint16_t> slot = page.AddItem(Slice(item));
      if (!slot.ok()) break;
      slots.push_back(slot.value());
    }
    for (size_t i = 0; i < slots.size(); i += 2) {
      Status s = page.DeleteItem(slots[i]);
      benchmark::DoNotOptimize(s.ok());
    }
    state.ResumeTiming();
    page.Compact();
  }
}
BENCHMARK(BM_SlottedPageCompact);

void BM_Crc32c(benchmark::State& state) {
  Bytes data = Random(1).RandomBytes(kPageSize);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
}
BENCHMARK(BM_Crc32c);

// The observability Database::Open binds in the served configuration
// (stats on, devices uncharged): a registry on a clock, the flight
// recorder, and every wait class.
struct ServedObs {
  ServedObs() {
    stats.SetClock(&clock);
    recorder =
        std::make_unique<FlightRecorder>(FlightRecorderOptions{}, &stats);
    stats.SetRecorder(recorder.get());
    waits.Bind(&stats, &recorder->events(),
               DatabaseOptions{}.wait_event_threshold_ns);
  }
  ~ServedObs() { stats.SetRecorder(nullptr); }

  SimClock clock;
  StatsRegistry stats;
  std::unique_ptr<FlightRecorder> recorder;
  WaitStatsTable waits;
};

// Page hits from 1 and 4 threads on one pool, each thread on its own
// eight resident pages, so all they share is the pool's latches (and,
// `served`, its counters). Thread 0 builds the pool before the loop's
// start barrier and drops it after the stop barrier. Real time: at 4
// threads, wall per hit across all threads.
void RunPoolHits(benchmark::State& state, bool served) {
  constexpr int kPagesPerThread = 8;
  static std::unique_ptr<ServedObs> obs;
  static std::unique_ptr<SmgrRegistry> smgrs;
  static std::unique_ptr<BufferPool> pool;
  if (state.thread_index() == 0) {
    smgrs = std::make_unique<SmgrRegistry>();
    (void)smgrs->Register(0, std::make_unique<MainMemorySmgr>(nullptr));
    (void)smgrs->Get(0).value()->CreateFile(1);
    pool = std::make_unique<BufferPool>(smgrs.get(), 64);
    if (served) {
      obs = std::make_unique<ServedObs>();
      pool->BindStats(&obs->stats);
      pool->BindWaits(&obs->waits);
    }
    for (int i = 0; i < state.threads() * kPagesPerThread; ++i) {
      BlockNumber block;
      (void)pool->NewPage({0, 1}, &block);
    }
  }
  const BlockNumber first = state.thread_index() * kPagesPerThread;
  BlockNumber i = 0;
  for (auto _ : state) {
    auto handle = pool->GetPage({{0, 1}, first + i++ % kPagesPerThread});
    benchmark::DoNotOptimize(handle.value().data());
  }
  if (state.thread_index() == 0) {
    pool.reset();
    smgrs.reset();
    obs.reset();
  }
}

void BM_BufferPoolHit(benchmark::State& state) { RunPoolHits(state, false); }
BENCHMARK(BM_BufferPoolHit)->Threads(1)->Threads(4)->UseRealTime();

// The same hits with the served configuration's observability bound: each
// also counts the hit, the stripe latch's acquisition and the
// bufpool.get_ns span, whose histogram and recorder shard it files into.
void BM_BufferPoolHitServed(benchmark::State& state) {
  RunPoolHits(state, true);
}
BENCHMARK(BM_BufferPoolHitServed)->Threads(1)->Threads(4)->UseRealTime();

// What an access-method operation pays for its relation latch: an outer
// Lock plus one re-entrant Lock/Unlock (Update = Delete + Insert), wait
// classes bound as served. Each thread latches its own relation, so at 4
// threads all they share is the registry.
void BM_RelLatch(benchmark::State& state) {
  static std::unique_ptr<ServedObs> obs;
  static std::unique_ptr<RelLatchRegistry> latches;
  if (state.thread_index() == 0) {
    obs = std::make_unique<ServedObs>();
    latches = std::make_unique<RelLatchRegistry>();
    latches->BindWaits(&obs->waits);
  }
  const RelFileId file{0, static_cast<Oid>(1 + state.thread_index())};
  for (auto _ : state) {
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    latches->Lock(file, WaitEvent::kLatchRelHeap);
    latches->Unlock(file);
    latches->Unlock(file);
  }
  if (state.thread_index() == 0) {
    latches.reset();
    obs.reset();
  }
}
BENCHMARK(BM_RelLatch)->Threads(1)->Threads(4)->UseRealTime();

// One trace span with the flight recorder on, from 1 and 4 threads: the
// cost every instrumented call pays in the served configuration. The
// 1-thread figure is what the obs gate's single stream sees.
void BM_TraceSpanRecorded(benchmark::State& state) {
  static SimClock clock;
  static std::unique_ptr<StatsRegistry> registry;
  static std::unique_ptr<FlightRecorder> recorder;
  if (state.thread_index() == 0) {
    registry = std::make_unique<StatsRegistry>();
    registry->SetClock(&clock);
    recorder = std::make_unique<FlightRecorder>(FlightRecorderOptions{},
                                                registry.get());
    registry->SetRecorder(recorder.get());
  }
  for (auto _ : state) {
    TraceSpan span(registry.get(), nullptr, "bench.span");
  }
  if (state.thread_index() == 0) {
    registry->SetRecorder(nullptr);
    recorder.reset();
    registry.reset();
  }
}
BENCHMARK(BM_TraceSpanRecorded)->Threads(1)->Threads(4)->UseRealTime();

void BM_BtreeInsert(benchmark::State& state) {
  SmgrRegistry smgrs;
  (void)smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr));
  BufferPool pool(&smgrs, 4096);
  (void)Btree::Create(&pool, {0, 1});
  Btree tree(&pool, {0, 1});
  uint64_t key = 0;
  for (auto _ : state) {
    Status s = tree.Insert(key, key);
    benchmark::DoNotOptimize(s.ok());
    ++key;
  }
}
BENCHMARK(BM_BtreeInsert);

// One key's entries read through Btree::Scan, in a 100,000-entry tree
// whose keys each hold `entries` versions: a one-entry key is one descent,
// a 1,000-entry key one descent per leaf it spans.
void BM_BtreeLookup(benchmark::State& state) {
  const uint64_t per_key = static_cast<uint64_t>(state.range(0));
  const uint64_t keys = 100'000 / per_key;
  SmgrRegistry smgrs;
  (void)smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr));
  BufferPool pool(&smgrs, 4096);
  (void)Btree::Create(&pool, {0, 1});
  Btree tree(&pool, {0, 1});
  for (uint64_t k = 0; k < keys; ++k) {
    for (uint64_t v = 0; v < per_key; ++v) {
      Status s = tree.Insert(k, v);
      benchmark::DoNotOptimize(s.ok());
    }
  }
  Random rng(3);
  for (auto _ : state) {
    uint64_t key = rng.Uniform(keys);
    uint64_t seen = 0;
    auto count = [&](uint64_t, uint64_t) -> Result<bool> {
      ++seen;
      return false;
    };
    benchmark::DoNotOptimize(tree.Scan(key, key, count).ok());
    benchmark::DoNotOptimize(seen);
  }
}
BENCHMARK(BM_BtreeLookup)->Arg(1)->Arg(1000)->ArgName("entries");

void BM_HeapInsert(benchmark::State& state) {
  SmgrRegistry smgrs;
  (void)smgrs.Register(0, std::make_unique<MainMemorySmgr>(nullptr));
  BufferPool pool(&smgrs, 4096);
  char path[] = "/tmp/pglo_micro_clog_XXXXXX";
  int fd = ::mkstemp(path);
  if (fd >= 0) ::close(fd);
  CommitLog clog;
  (void)clog.Open(path);
  TxnManager txns(&clog, &pool);
  (void)HeapClass::Create(&pool, {0, 1});
  HeapClass heap(&pool, {0, 1});
  Transaction* txn = txns.Begin();
  Bytes payload(200, 7);
  for (auto _ : state) {
    auto tid = heap.Insert(txn, Slice(payload));
    benchmark::DoNotOptimize(tid.ok());
  }
  (void)txns.Abort(txn);
  ::unlink(path);
}
BENCHMARK(BM_HeapInsert);

void BM_RleCompressFrame(benchmark::State& state) {
  Bytes frame = MakeFrame(1, 0, FrameParams{});
  RleCompressor rle;
  for (auto _ : state) {
    Bytes out;
    Status s = rle.Compress(Slice(frame), &out);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(state.iterations() * frame.size());
}
BENCHMARK(BM_RleCompressFrame);

void BM_LzssCompressFrame(benchmark::State& state) {
  Bytes frame = MakeFrame(1, 0, FrameParams{});
  LzssCompressor lzss;
  for (auto _ : state) {
    Bytes out;
    Status s = lzss.Compress(Slice(frame), &out);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(state.iterations() * frame.size());
}
BENCHMARK(BM_LzssCompressFrame);

void BM_LzssDecompressFrame(benchmark::State& state) {
  Bytes frame = MakeFrame(1, 0, FrameParams{});
  LzssCompressor lzss;
  Bytes compressed;
  (void)lzss.Compress(Slice(frame), &compressed);
  for (auto _ : state) {
    Bytes out;
    Status s = lzss.Decompress(Slice(compressed), frame.size(), &out);
    benchmark::DoNotOptimize(s.ok());
  }
  state.SetBytesProcessed(state.iterations() * frame.size());
}
BENCHMARK(BM_LzssDecompressFrame);

// End-to-end large-object throughput (wall clock, devices uncharged): the
// real CPU cost of the f-chunk and v-segment read/write paths.
void BM_LoThroughput(benchmark::State& state) {
  const bool vsegment = state.range(0) == 1;
  const bool write = state.range(1) == 1;

  char tmpl[] = "/tmp/pglo_micro_db_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  Database database;
  DatabaseOptions options;
  options.dir = dir ? dir : "/tmp/pglo_micro_db";
  options.charge_devices = false;
  options.buffer_pool_frames = 2048;
  if (!database.Open(options).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  std::unique_ptr<Session> session = database.Connect();
  Transaction* txn = session->Begin();
  LoSpec spec;
  spec.kind = vsegment ? StorageKind::kVSegment : StorageKind::kFChunk;
  Oid oid = database.large_objects().Create(txn, spec).value();
  auto lo = database.large_objects().Instantiate(txn, oid).value();
  Bytes frame = MakeFrame(1, 0, FrameParams{});
  // Preload 4 MB so reads have something to chew on.
  for (uint64_t i = 0; i < 1024; ++i) {
    benchmark::DoNotOptimize(
        lo->Write(txn, i * frame.size(), Slice(frame)).ok());
  }
  uint64_t pos = 0;
  Bytes buf(frame.size());
  for (auto _ : state) {
    uint64_t off = (pos++ % 1024) * frame.size();
    if (write) {
      Status s = lo->Write(txn, off, Slice(frame));
      benchmark::DoNotOptimize(s.ok());
    } else {
      auto n = lo->Read(txn, off, frame.size(), buf.data());
      benchmark::DoNotOptimize(n.ok());
    }
  }
  state.SetBytesProcessed(state.iterations() * frame.size());
  benchmark::DoNotOptimize(session->Abort().ok());
  session.reset();
  benchmark::DoNotOptimize(database.Close().ok());
  if (dir) {
    int rc = std::system(("rm -rf '" + std::string(dir) + "'").c_str());
    (void)rc;
  }
}
BENCHMARK(BM_LoThroughput)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"vseg", "write"});

// Opening a large object with 8, 100 and 1,000 rows in the LO catalog
// (devices uncharged, a 4,096-frame pool): the mean latency of an open of
// a random object and its close, 200 opens per transaction. The objects
// are f-chunk on the main-memory storage manager, so they hold no host
// descriptors.
void BM_LoOpen(benchmark::State& state) {
  constexpr int kOpensPerTxn = 200;
  char tmpl[] = "/tmp/pglo_micro_db_XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  Database database;
  DatabaseOptions options;
  options.dir = dir ? dir : "/tmp/pglo_micro_db";
  options.charge_devices = false;
  options.buffer_pool_frames = 4096;
  if (!database.Open(options).ok()) {
    state.SkipWithError("open failed");
    return;
  }
  std::unique_ptr<Session> session = database.Connect();
  LoSpec spec;
  spec.smgr = kSmgrMemory;
  std::vector<Oid> oids;
  session->Begin();
  for (int64_t i = 0; i < state.range(0); ++i) {
    oids.push_back(session->CreateLo(spec).value());
  }
  benchmark::DoNotOptimize(session->Commit().ok());
  session->Begin();
  Random rng(5);
  int opens = 0;
  for (auto _ : state) {
    auto fd = session->OpenLo(oids[rng.Uniform(oids.size())], false);
    if (!fd.ok() || !session->CloseLo(fd.value()).ok()) {
      state.SkipWithError("open failed");
      break;
    }
    if (++opens % kOpensPerTxn == 0) {
      state.PauseTiming();
      benchmark::DoNotOptimize(session->Abort().ok());
      session->Begin();
      state.ResumeTiming();
    }
  }
  benchmark::DoNotOptimize(session->Abort().ok());
  session.reset();
  benchmark::DoNotOptimize(database.Close().ok());
  if (dir) {
    int rc = std::system(("rm -rf '" + std::string(dir) + "'").c_str());
    (void)rc;
  }
}
BENCHMARK(BM_LoOpen)->Arg(8)->Arg(100)->Arg(1000)->ArgName("rows");

// Console reporter that also copies every finished run into the BenchRun
// JSON: one row per benchmark, wall-clock values only.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::BenchRun* run) : run_(run) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred || r.iterations == 0) continue;
      double iters = static_cast<double>(r.iterations);
      run_->RecordValue(r.benchmark_name(), "real_ns_per_op",
                        r.real_accumulated_time / iters * 1e9);
      run_->RecordValue(r.benchmark_name(), "cpu_ns_per_op",
                        r.cpu_accumulated_time / iters * 1e9);
      auto bytes = r.counters.find("bytes_per_second");
      if (bytes != r.counters.end()) {
        run_->RecordValue(r.benchmark_name(), "bytes_per_second",
                          bytes->second.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchRun* run_;
};

}  // namespace
}  // namespace pglo

int main(int argc, char** argv) {
  // Split the command line: --benchmark_* flags go to the google-benchmark
  // runner, everything else to the shared bench harness (--quick/--json=/
  // --no-json/...). --quick shortens each measurement instead of shrinking
  // a workload — these benches have no scale knob.
  std::vector<char*> bench_argv = {argv[0]};
  std::vector<char*> harness_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      bench_argv.push_back(argv[i]);
    } else {
      harness_argv.push_back(argv[i]);
    }
  }
  pglo::bench::BenchArgs args = pglo::bench::ParseBenchArgs(
      static_cast<int>(harness_argv.size()), harness_argv.data(), "micro",
      "/tmp/pglo_bench_micro");
  static char min_time[] = "--benchmark_min_time=0.05";
  if (args.quick) bench_argv.push_back(min_time);

  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  pglo::bench::BenchRun run(args);
  // No Database to wire: micro benches build their own substrates, and the
  // rows deliberately carry no simulated_seconds (wall clock is host noise,
  // not a regression signal for bench_compare).
  run.StartConfig("micro", nullptr,
                  {{"kind", "wall-clock"}, {"scale", args.quick ? "quick" : "full"}});
  pglo::JsonCapturingReporter reporter(&run);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  run.FinishConfig();
  pglo::Status s = run.Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "json write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

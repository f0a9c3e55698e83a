// Ablations A–E: each axis sweeps one engine option over the f-chunk
// object of §9 and shows why the paper's setting is where it is.
//
//   A chunksize    §6.3 fixes the f-chunk data array at 8000 bytes so "a
//                  single record neatly fills a POSTGRES 8K page". Smaller
//                  chunks waste page space and multiply index entries;
//                  chunks are capped by the page size since POSTGRES never
//                  splits tuples across pages.
//   B bufferpool   The f-chunk path's competitiveness with the native file
//                  system (Figure 2) depends on the DBMS cache absorbing
//                  index pages and re-touched chunks; where does that break
//                  down under the 80/20-locality workload?
//   C wormcache    §9.3's entire result — the DBMS beating a raw-device
//                  reader on random and 80/20 access — hinges on the WORM
//                  magnetic-disk cache; the sweep shows the crossover from
//                  useless to decisive.
//   D compression  §9.2's crossover — "the extra 20 instructions per byte
//                  are more than compensated for by the reduced disk
//                  traffic" — depends on the CPU speed: each codec's
//                  sequential read at several simulated MIPS ratings.
//   E readahead    The buffer-pool / UFS-cache prefetch window on the disk
//                  and the WORM drive. Window 0 is the pre-vectored-I/O
//                  system (every block a separate device command); window 1
//                  enables write coalescing but never prefetches; larger
//                  windows amortize per-command overhead across streaming
//                  runs, while random ops must stay flat.
//
// Every point opens a fresh database, creates the object, runs the axis's
// operations under fixed seeds, and records one config.
//
// Run: bench_ablation [--axis=NAME] [--quick] [--profile]
//                     [--trace=FILE] [--json=FILE] [workdir]
// Without --axis all five axes run, A to E. Each axis writes its results
// to BENCH_ablation_<axis>[_quick].json (pglo-bench-v1 schema; see
// DESIGN.md §9) unless --no-json is given; --json and --trace name one
// file, so they need --axis.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace pglo {
namespace bench {
namespace {

/// What every axis shares: the parsed flags, the workload scale and the
/// results emitter.
struct Sweep {
  const BenchArgs& args;
  WorkloadScale scale;
  BenchRun& run;
};

/// Runs the axis's operations against the freshly created object and
/// records them; `create_s` is the create's simulated seconds.
using Measure = std::function<Status(Database& db, LoBenchRunner& runner,
                                     Oid oid, double create_s)>;

/// One swept configuration: a fresh database under `subdir` with the
/// axis's option applied by `tweak`, then `measure`.
Status RunPoint(Sweep& sweep, const std::string& subdir,
                const BenchConfig& config,
                std::map<std::string, std::string> info,
                const std::function<void(DatabaseOptions&)>& tweak,
                const Measure& measure) {
  Database db;
  DatabaseOptions options = PaperOptions(sweep.args.workdir + "/" + subdir);
  if (sweep.args.readahead >= 0) {
    options.readahead_pages = static_cast<uint32_t>(sweep.args.readahead);
  }
  tweak(options);
  Status s = db.Open(options);
  if (!s.ok()) return Status::Internal("open failed: " + s.ToString());
  sweep.run.StartConfig(config.name, &db, info);
  LoBenchRunner runner(&db, sweep.scale);
  SimTimer create_timer(&db.clock());
  Result<Oid> oid = runner.CreateObject(config);
  Status result =
      oid.ok() ? measure(db, runner, *oid, create_timer.ElapsedSeconds())
               : Status::Internal("create failed: " + oid.status().ToString());
  // Detach from `db` before it closes, on failure too.
  sweep.run.FinishConfig();
  return result;
}

/// hits / (hits + misses + 1) over the deltas of the counters
/// `<prefix>hits` and `<prefix>misses` from `before` to `after`.
double HitRate(const StatsSnapshot& before, const StatsSnapshot& after,
               const std::string& prefix) {
  auto delta = [&](const std::string& name) {
    return after.Value(prefix + name) - before.Value(prefix + name);
  };
  uint64_t hits = delta("hits");
  return static_cast<double>(hits) /
         static_cast<double>(hits + delta("misses") + 1);
}

Status ChunkSize(Sweep& sweep) {
  std::printf("Ablation A: f-chunk chunk size (51.2 MB object)\n\n");
  std::printf("%8s %14s %14s %12s %12s %12s\n", "chunk", "data bytes",
              "index bytes", "seq read s", "rand read s", "seq write s");
  for (uint32_t chunk_size : {1000u, 2000u, 4000u, 8000u}) {
    BenchConfig config{"chunk=" + std::to_string(chunk_size),
                       StorageKind::kFChunk, "", kSmgrDisk, chunk_size};
    PGLO_RETURN_IF_ERROR(RunPoint(
        sweep, std::to_string(chunk_size), config, ConfigInfo(config),
        [](DatabaseOptions&) {},
        [&](Database&, LoBenchRunner& runner, Oid oid,
            double create_s) -> Status {
          sweep.run.RecordResult("create", create_s);
          PGLO_ASSIGN_OR_RETURN(LargeObject::StorageFootprint fp,
                                runner.Footprint(oid));
          PGLO_ASSIGN_OR_RETURN(double seq, runner.RunOp(oid, Op::kSeqRead, 1));
          PGLO_ASSIGN_OR_RETURN(double rand,
                                runner.RunOp(oid, Op::kRandRead, 2));
          PGLO_ASSIGN_OR_RETURN(double wr, runner.RunOp(oid, Op::kSeqWrite, 3));
          sweep.run.RecordResult(OpName(Op::kSeqRead), seq);
          sweep.run.RecordResult(OpName(Op::kRandRead), rand);
          sweep.run.RecordResult(OpName(Op::kSeqWrite), wr);
          sweep.run.RecordValue("create", "data_bytes",
                                static_cast<double>(fp.data_bytes));
          sweep.run.RecordValue("create", "index_bytes",
                                static_cast<double>(fp.index_bytes));
          std::printf("%8u %14llu %14llu %12.1f %12.1f %12.1f\n", chunk_size,
                      static_cast<unsigned long long>(fp.data_bytes),
                      static_cast<unsigned long long>(fp.index_bytes), seq,
                      rand, wr);
          return Status::OK();
        }));
  }
  std::printf(
      "\nExpected shape: 8000-byte chunks minimize storage overhead and "
      "sequential cost;\nsmall chunks waste page space (one tuple per "
      "page boundary effect disappears,\nbut per-chunk headers and index "
      "entries multiply).\n");
  return Status::OK();
}

Status BufferPool(Sweep& sweep) {
  std::printf("Ablation B: buffer pool size, f-chunk object (51.2 MB)\n\n");
  std::printf("%10s %14s %14s %14s\n", "pool MB", "80/20 read s",
              "rand read s", "pool hit rate");
  // 0.5, 2, 10, 25 MB.
  for (size_t frames : {size_t{64}, size_t{256}, size_t{1250}, size_t{3200}}) {
    BenchConfig config{"pool=" + std::to_string(frames), StorageKind::kFChunk,
                       ""};
    PGLO_RETURN_IF_ERROR(RunPoint(
        sweep, std::to_string(frames), config, ConfigInfo(config),
        [&](DatabaseOptions& options) { options.buffer_pool_frames = frames; },
        [&](Database& db, LoBenchRunner& runner, Oid oid, double) -> Status {
          StatsSnapshot before = db.Stats();
          PGLO_ASSIGN_OR_RETURN(double local,
                                runner.RunOp(oid, Op::kLocalRead, 5));
          PGLO_ASSIGN_OR_RETURN(double rand,
                                runner.RunOp(oid, Op::kRandRead, 6));
          double hit_rate = HitRate(before, db.Stats(), "bufpool.");
          sweep.run.RecordResult(OpName(Op::kLocalRead), local);
          sweep.run.RecordResult(OpName(Op::kRandRead), rand);
          sweep.run.RecordValue(OpName(Op::kLocalRead), "pool_hit_rate",
                                hit_rate);
          std::printf("%10.1f %14.1f %14.1f %13.1f%%\n",
                      frames * 8192.0 / (1024 * 1024), local, rand,
                      100.0 * hit_rate);
          return Status::OK();
        }));
  }
  std::printf(
      "\nExpected shape: elapsed time falls and hit rate rises with pool "
      "size; the\n80/20 workload benefits first (its working set is "
      "smaller than uniform random's).\n");
  return Status::OK();
}

Status WormCache(Sweep& sweep) {
  std::printf("Ablation C: WORM magnetic-disk cache size, f-chunk object\n\n");
  std::printf("%10s %14s %14s %14s %14s\n", "cache MB", "seq read s",
              "rand read s", "80/20 read s", "hit rate");
  for (size_t blocks : {0, 640, 1250, 3200, 4480, 7000}) {
    BenchConfig config{"cache=" + std::to_string(blocks),
                       StorageKind::kFChunk, "", kSmgrWorm};
    PGLO_RETURN_IF_ERROR(RunPoint(
        sweep, std::to_string(blocks), config, ConfigInfo(config),
        [&](DatabaseOptions& options) {
          // Quick mode shrinks the object 10x; shrink the sweep to match so
          // the crossover still happens inside the swept range.
          options.worm_cache_blocks = sweep.args.quick ? blocks / 10 : blocks;
        },
        [&](Database& db, LoBenchRunner& runner, Oid oid, double) -> Status {
          StatsSnapshot before = db.Stats();
          PGLO_ASSIGN_OR_RETURN(double seq, runner.RunOp(oid, Op::kSeqRead, 7));
          PGLO_ASSIGN_OR_RETURN(double rand,
                                runner.RunOp(oid, Op::kRandRead, 8));
          PGLO_ASSIGN_OR_RETURN(double local,
                                runner.RunOp(oid, Op::kLocalRead, 9));
          double hit_rate = HitRate(before, db.Stats(), "smgr.worm.cache_");
          sweep.run.RecordResult(OpName(Op::kSeqRead), seq);
          sweep.run.RecordResult(OpName(Op::kRandRead), rand);
          sweep.run.RecordResult(OpName(Op::kLocalRead), local);
          sweep.run.RecordValue(OpName(Op::kLocalRead), "worm_cache_hit_rate",
                                hit_rate);
          std::printf("%10.1f %14.1f %14.1f %14.1f %13.1f%%\n",
                      blocks * 8192.0 / (1024 * 1024), seq, rand, local,
                      100.0 * hit_rate);
          return Status::OK();
        }));
  }
  std::printf(
      "\nExpected shape: sequential time is cache-insensitive (a cold "
      "streaming scan);\nrandom and 80/20 collapse once the cache covers "
      "a majority of the object.\n");
  return Status::OK();
}

Status Compression(Sweep& sweep) {
  const char* kCodecs[] = {"", "rle", "lzss"};
  std::printf("Ablation D: compression codec x CPU speed, f-chunk object,\n"
              "10MB sequential read (simulated seconds)\n\n");
  std::printf("%10s %14s %14s %14s\n", "MIPS", "none", "rle (~30%)",
              "lzss (~50%)");
  for (double mips : {10.0, 25.0, 65.0, 200.0}) {
    double cells[3] = {};
    for (int c = 0; c < 3; ++c) {
      BenchConfig config{"mips=" + std::to_string(int(mips)) + " codec=" +
                             (kCodecs[c][0] != '\0' ? kCodecs[c] : "none"),
                         StorageKind::kFChunk, kCodecs[c]};
      auto info = ConfigInfo(config);
      info["cpu_mips"] = std::to_string(int(mips));
      PGLO_RETURN_IF_ERROR(RunPoint(
          sweep, std::to_string(int(mips)) + "_" + std::to_string(c), config,
          info, [&](DatabaseOptions& options) { options.cpu_mips = mips; },
          [&](Database&, LoBenchRunner& runner, Oid oid, double) -> Status {
            PGLO_ASSIGN_OR_RETURN(cells[c],
                                  runner.RunOp(oid, Op::kSeqRead, 11));
            sweep.run.RecordResult(OpName(Op::kSeqRead), cells[c]);
            return Status::OK();
          }));
    }
    std::printf("%10.0f %14.1f %14.1f %14.1f\n", mips, cells[0], cells[1],
                cells[2]);
  }
  std::printf(
      "\nExpected shape: at low MIPS decompression dominates and "
      "compression loses;\nas MIPS rise the 50%% codec wins outright "
      "(half the pages to read), and the\n30%% codec never wins (it saves "
      "no pages — Figure 1).\n");
  return Status::OK();
}

Status ReadAhead(Sweep& sweep) {
  struct Device {
    const char* label;
    uint8_t smgr;
  };
  std::printf("Ablation E: read-ahead window, f-chunk object\n\n");
  std::printf("%12s %8s %12s %12s %12s %12s %14s\n", "device", "window",
              "create s", "seq read s", "rand read s", "80/20 read s",
              "coalesced runs");
  for (const Device& device : {Device{"disk", kSmgrDisk},
                               Device{"worm", kSmgrWorm}}) {
    for (uint32_t window : {0u, 1u, 4u, 8u, 32u}) {
      BenchConfig config{
          std::string(device.label) + " window=" + std::to_string(window),
          StorageKind::kFChunk, "", device.smgr};
      auto info = ConfigInfo(config);
      info["readahead"] = std::to_string(window);
      PGLO_RETURN_IF_ERROR(RunPoint(
          sweep, device.label + std::to_string(window), config, info,
          [&](DatabaseOptions& options) { options.readahead_pages = window; },
          [&](Database& db, LoBenchRunner& runner, Oid oid,
              double create_s) -> Status {
            PGLO_ASSIGN_OR_RETURN(double seq,
                                  runner.RunOp(oid, Op::kSeqRead, 7));
            PGLO_ASSIGN_OR_RETURN(double rand,
                                  runner.RunOp(oid, Op::kRandRead, 8));
            PGLO_ASSIGN_OR_RETURN(double local,
                                  runner.RunOp(oid, Op::kLocalRead, 9));
            StatsSnapshot snap = db.Stats();
            uint64_t coalesced = snap.Value("smgr.disk.coalesced_runs") +
                                 snap.Value("smgr.worm.coalesced_runs");
            sweep.run.RecordResult("create", create_s);
            sweep.run.RecordResult(OpName(Op::kSeqRead), seq);
            sweep.run.RecordResult(OpName(Op::kRandRead), rand);
            sweep.run.RecordResult(OpName(Op::kLocalRead), local);
            sweep.run.RecordValue(OpName(Op::kSeqRead), "readahead_window",
                                  window);
            std::printf("%12s %8u %12.1f %12.1f %12.1f %12.1f %14llu\n",
                        device.label, window, create_s, seq, rand, local,
                        static_cast<unsigned long long>(coalesced));
            return Status::OK();
          }));
    }
  }
  std::printf(
      "\nExpected shape: create and sequential read fall steeply from "
      "window 0 to 8\n(vectored runs amortize per-command overhead) and "
      "flatten after; random and\n80/20 reads are window-insensitive — the "
      "detector demands a confirmed streak\nbefore prefetching, so "
      "non-sequential access never pays for unused blocks.\n");
  return Status::OK();
}

struct Axis {
  const char* name;
  Status (*sweep)(Sweep&);
};

constexpr Axis kAxes[] = {
    {"chunksize", ChunkSize},     {"bufferpool", BufferPool},
    {"wormcache", WormCache},     {"compression", Compression},
    {"readahead", ReadAhead},
};

int RunAxis(const Axis& axis, int argc, char** argv) {
  const std::string name = std::string("ablation_") + axis.name;
  BenchArgs args = ParseBenchArgs(argc, argv, name, "/tmp/pglo_bench_" + name);
  const std::string rm = "rm -rf '" + args.workdir + "'";
  int rc = std::system(rm.c_str());
  (void)rc;
  BenchRun run(args);
  Sweep sweep{args, ScaleFor(args.quick), run};
  Status s = axis.sweep(sweep);
  if (!s.ok()) {
    std::fprintf(stderr, "ablation %s failed: %s\n", axis.name,
                 s.ToString().c_str());
    return 1;
  }
  Status finish = run.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "results write failed: %s\n",
                 finish.ToString().c_str());
    return 1;
  }
  rc = std::system(rm.c_str());
  (void)rc;
  return 0;
}

int Main(int argc, char** argv) {
  // --axis is ours; every other flag goes to ParseBenchArgs.
  std::string axis_name;
  bool names_one_file = false;
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--axis=", 0) == 0) {
      axis_name = arg.substr(7);
      continue;
    }
    if (arg.rfind("--json=", 0) == 0 || arg.rfind("--trace=", 0) == 0) {
      names_one_file = true;
    }
    rest.push_back(argv[i]);
  }
  std::vector<const Axis*> axes;
  for (const Axis& axis : kAxes) {
    if (axis_name.empty() || axis_name == axis.name) axes.push_back(&axis);
  }
  if (axes.empty()) {
    std::fprintf(stderr,
                 "unknown --axis=%s (chunksize, bufferpool, wormcache, "
                 "compression, readahead)\n",
                 axis_name.c_str());
    return 2;
  }
  if (axes.size() > 1 && names_one_file) {
    std::fprintf(stderr, "--json and --trace need --axis\n");
    return 2;
  }
  for (size_t i = 0; i < axes.size(); ++i) {
    if (i > 0) std::printf("\n");
    int rc = RunAxis(*axes[i], static_cast<int>(rest.size()), rest.data());
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pglo

int main(int argc, char** argv) { return pglo::bench::Main(argc, argv); }

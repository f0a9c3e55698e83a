// Reproduces Figure 3, "WORM Performance on the Benchmark": the read
// operations over the optical jukebox storage manager, against a "special
// purpose program which reads ... the raw device" as the upper-bound
// baseline (§9.3). The special program has no cache management and no
// atomicity guarantees; POSTGRES's WORM storage manager keeps a magnetic
// disk cache of optical blocks, which is what wins the random and 80/20
// tests.
//
// Run: bench_figure3_worm [--quick] [--profile]
//                         [--trace=FILE] [--json=FILE] [workdir]
// Results are also written to BENCH_figure3[_quick].json (pglo-bench-v1
// schema; see DESIGN.md §9) unless --no-json is given. The special-program
// baseline appears as config "special" with no counters (it bypasses the
// database entirely).

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "common/random.h"

namespace pglo {
namespace bench {
namespace {

/// The §9.3 baseline: reads 4096-byte frames straight off the jukebox, no
/// cache, no recovery, "an upper bound on how well an operating system
/// WORM jukebox file system could expect to do."
class SpecialProgram {
 public:
  SpecialProgram() : device_(&clock_, Params()) {}

  static WormModelParams Params() {
    WormModelParams params;
    params.block_size = static_cast<uint32_t>(kFrameSize);
    return params;
  }

  double ReadFrames(const std::vector<uint64_t>& frames) {
    SimTimer timer(&clock_);
    // One raw-device transfer per contiguous record run: with no cache or
    // page layer in the way, nothing stops the special program from
    // streaming an entire sequential request as a single command.
    for (size_t i = 0; i < frames.size();) {
      uint32_t run = 1;
      while (i + run < frames.size() &&
             frames[i + run] == frames[i] + run) {
        ++run;
      }
      device_.ChargeRead(frames[i], run);
      i += run;
    }
    return timer.ElapsedSeconds();
  }

 private:
  SimClock clock_;
  WormJukeboxModel device_;
};

std::vector<uint64_t> OpFrames(Op op, uint64_t seed,
                               const WorkloadScale& scale) {
  Random rng(seed);
  std::vector<uint64_t> frames;
  switch (op) {
    case Op::kSeqRead:
      for (uint64_t i = 0; i < scale.seq_frames; ++i) frames.push_back(i);
      break;
    case Op::kRandRead:
      for (uint64_t i = 0; i < scale.rand_frames; ++i) {
        frames.push_back(rng.Uniform(scale.num_frames));
      }
      break;
    case Op::kLocalRead: {
      uint64_t frame = rng.Uniform(scale.num_frames);
      for (uint64_t i = 0; i < scale.rand_frames; ++i) {
        frames.push_back(frame);
        frame = rng.OneInHundred(80) ? (frame + 1) % scale.num_frames
                                     : rng.Uniform(scale.num_frames);
      }
      break;
    }
    default:
      break;
  }
  return frames;
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv, "figure3", "/tmp/pglo_bench_fig3");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  const WorkloadScale scale = ScaleFor(args.quick);
  BenchRun run(args);

  const std::vector<BenchConfig> configs = {
      {"f-chunk 0%", StorageKind::kFChunk, "", kSmgrWorm},
      {"f-chunk 30%", StorageKind::kFChunk, "rle", kSmgrWorm},
      {"v-segment 30%", StorageKind::kVSegment, "rle", kSmgrWorm},
      {"f-chunk 50%", StorageKind::kFChunk, "lzss", kSmgrWorm},
  };
  // §9.3 measures only the read portion of the benchmark.
  const std::vector<Op> ops = {Op::kSeqRead, Op::kRandRead, Op::kLocalRead};

  std::vector<std::string> columns = {"special"};
  for (const auto& config : configs) columns.push_back(config.name);
  std::vector<std::string> rows;
  for (Op op : ops) rows.push_back(OpName(op));
  std::vector<std::vector<double>> cells(
      ops.size(), std::vector<double>(columns.size(), 0.0));

  // Column 1: the raw-device special program. No database behind it, so
  // BenchRun records its times without wiring any trace/profiler sinks.
  {
    run.StartConfig("special", nullptr, {{"kind", "raw-device"}});
    SpecialProgram special;
    for (size_t o = 0; o < ops.size(); ++o) {
      cells[o][0] = special.ReadFrames(OpFrames(ops[o], 1000 + o, scale));
      run.RecordResult(OpName(ops[o]), cells[o][0]);
    }
    run.FinishConfig();
  }

  for (size_t c = 0; c < configs.size(); ++c) {
    std::string dir = workdir + "/" + std::to_string(c);
    Database db;
    DatabaseOptions options = PaperOptions(dir);
    // The magnetic-disk cache in front of the jukebox: 35 MB — a cheap
    // magnetic staging area, smaller than the 51.2 MB object. Creating
    // the object warms it with the object's *tail*, so the sequential
    // test over the object's start runs cold (the special program wins
    // there) while the uniform-random and 80/20 tests hit the warm
    // majority (the cache wins there) — the §9.3 asymmetry.
    options.worm_cache_blocks = args.quick ? 448 : 4480;
    if (args.readahead >= 0) {
      options.readahead_pages = static_cast<uint32_t>(args.readahead);
    }
    Status s = db.Open(options);
    if (!s.ok()) {
      std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
      return 1;
    }
    run.StartConfig(configs[c].name, &db, ConfigInfo(configs[c]));
    LoBenchRunner runner(&db, scale);
    SimTimer create_timer(&db.clock());
    Result<Oid> oid = runner.CreateObject(configs[c]);
    if (!oid.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", configs[c].name.c_str(),
                   oid.status().ToString().c_str());
      return 1;
    }
    run.RecordResult("create", create_timer.ElapsedSeconds());
    for (size_t o = 0; o < ops.size(); ++o) {
      Result<double> seconds = runner.RunOp(*oid, ops[o], 1000 + o);
      if (!seconds.ok()) {
        std::fprintf(stderr, "%s / %s failed: %s\n", configs[c].name.c_str(),
                     OpName(ops[o]), seconds.status().ToString().c_str());
        return 1;
      }
      cells[o][c + 1] = *seconds;
      run.RecordResult(OpName(ops[o]), *seconds);
    }
    run.FinishConfig();
    StatsSnapshot stats = db.Stats();
    std::fprintf(
        stderr, "# %s: cache hits %llu misses %llu optical reads %llu\n",
        configs[c].name.c_str(),
        static_cast<unsigned long long>(stats.Value("smgr.worm.cache_hits")),
        static_cast<unsigned long long>(stats.Value("smgr.worm.cache_misses")),
        static_cast<unsigned long long>(
            stats.Value("smgr.worm.optical_reads")));
  }

  std::printf("%s\n",
              FormatTable("Figure 3: WORM Performance on the Benchmark "
                          "(simulated elapsed seconds)",
                          columns, rows, cells)
                  .c_str());
  std::printf("Shape checks (paper's §9.3 claims):\n");
  std::printf("  special vs f-chunk 0%% seq:   special is %+5.1f%% faster "
              "(paper: ~20%%)\n",
              100.0 * (cells[0][1] / cells[0][0] - 1.0));
  std::printf("  f-chunk 0%% random vs special: %4.2fx faster (paper: "
              "dramatically superior)\n",
              cells[1][0] / cells[1][1]);
  std::printf("  f-chunk 0%% 80/20 vs special:  %4.2fx faster (most requests "
              "from cache)\n",
              cells[2][0] / cells[2][1]);
  std::printf("  compression pays off: f-chunk 50%% seq %.1fs vs 0%% %.1fs "
              "(paper: less optical traffic wins)\n",
              cells[0][4], cells[0][1]);
  Status finish = run.Finish();
  if (!finish.ok()) {
    std::fprintf(stderr, "results write failed: %s\n",
                 finish.ToString().c_str());
    return 1;
  }
  rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pglo

int main(int argc, char** argv) { return pglo::bench::Main(argc, argv); }

// Reproduces Figure 2, "Disk Performance on the Benchmark": simulated
// elapsed seconds for the six §9.1 operations over the six disk-resident
// implementations. Columns follow the paper:
//   user file | POSTGRES file | f-chunk 0% | f-chunk 30% | v-segment 30% |
//   f-chunk 50%
//
// Each config column is followed by a per-config observability table
// (buffer-pool hit rate, storage-manager block I/O, device seeks and
// transfers) from Database::Stats(). Stats never advance the clock, so
// simulated times are the same with them off (obs_test pins this).
//
// Run: bench_figure2_disk [--quick] [--profile]
//                         [--trace=FILE] [--json=FILE] [workdir]
// Results are also written to BENCH_figure2[_quick].json (pglo-bench-v1
// schema; see DESIGN.md §9) unless --no-json is given.

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"

namespace pglo {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv, "figure2", "/tmp/pglo_bench_fig2");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  const WorkloadScale scale = ScaleFor(args.quick);
  BenchRun run(args);

  const std::vector<BenchConfig> configs = {
      {"user file", StorageKind::kUserFile, ""},
      {"POSTGRES file", StorageKind::kPostgresFile, ""},
      {"f-chunk 0%", StorageKind::kFChunk, ""},
      {"f-chunk 30%", StorageKind::kFChunk, "rle"},
      {"v-segment 30%", StorageKind::kVSegment, "rle"},
      {"f-chunk 50%", StorageKind::kFChunk, "lzss"},
  };
  const std::vector<Op> ops = {Op::kSeqRead,   Op::kSeqWrite,
                               Op::kRandRead,  Op::kRandWrite,
                               Op::kLocalRead, Op::kLocalWrite};

  std::vector<std::vector<double>> cells(
      ops.size(), std::vector<double>(configs.size(), 0.0));
  std::vector<StatsSnapshot> snapshots(configs.size());

  for (size_t c = 0; c < configs.size(); ++c) {
    std::string dir = workdir + "/" + std::to_string(c);
    Database db;
    DatabaseOptions options = PaperOptions(dir);
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
      cells[o][c] = *seconds;
      run.RecordResult(OpName(ops[o]), *seconds);
    }
    snapshots[c] = db.Stats();
    run.FinishConfig();
  }

  std::vector<std::string> columns, rows;
  for (const auto& config : configs) columns.push_back(config.name);
  for (Op op : ops) rows.push_back(OpName(op));
  std::printf("%s\n",
              FormatTable("Figure 2: Disk Performance on the Benchmark "
                          "(simulated elapsed seconds)",
                          columns, rows, cells)
                  .c_str());
  std::printf("%s\n",
              FormatStatsTable("Physical operations per config (object "
                               "creation + all six operations)",
                               columns, snapshots)
                  .c_str());

  // The §9.2 shape claims, computed from the measured cells.
  double native_seq = cells[0][0];
  double fchunk_seq = cells[0][2];
  double native_rand = cells[2][0];
  double fchunk_rand = cells[2][2];
  double fchunk30_seq = cells[0][3];
  double vseg_seq = cells[0][4];
  double fchunk50_seq = cells[0][5];
  std::printf("Shape checks (paper's §9.2 claims):\n");
  std::printf("  f-chunk seq read vs native:      %+5.1f%%  (paper: within "
              "~7%%)\n",
              100.0 * (fchunk_seq / native_seq - 1.0));
  std::printf("  f-chunk random throughput/native: %4.2fx  (paper: 0.5-0.75x)"
              "\n",
              native_rand / fchunk_rand);
  std::printf("  f-chunk 30%% vs 0%% seq read:      %+5.1f%%  (paper: ~13%% "
              "slower)\n",
              100.0 * (fchunk30_seq / fchunk_seq - 1.0));
  std::printf("  v-segment 30%% vs f-chunk 0%%:     %+5.1f%%  (paper: ~25%% "
              "slower)\n",
              100.0 * (vseg_seq / fchunk_seq - 1.0));
  std::printf("  f-chunk 50%% seq read vs native:  %+5.1f%%  (paper: beats "
              "native — \"fewer I/Os ... the extra 20 instructions per byte "
              "are more than\n"
              "                                            compensated for "
              "by the reduced disk traffic\")\n",
              100.0 * (fchunk50_seq / native_seq - 1.0));
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

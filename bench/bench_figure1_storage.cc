// Reproduces Figure 1, "Storage Used by the Various Large Object
// Implementations": the bytes consumed by a 51.2 MB object under the six
// configurations the paper tested.
//
// A per-config observability table (buffer-pool hit rate, storage-manager
// block I/O, device seeks and transfers during object creation) follows the
// figure.
//
// Run: bench_figure1_storage [--quick] [--profile]
//                            [--trace=FILE] [--json=FILE] [workdir]
// Results are also written to BENCH_figure1[_quick].json (pglo-bench-v1
// schema; see DESIGN.md §9) unless --no-json is given.

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"

namespace pglo {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv, "figure1", "/tmp/pglo_bench_fig1");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  const WorkloadScale scale = ScaleFor(args.quick);
  BenchRun run(args);

  // The six rows of Figure 1.
  const std::vector<BenchConfig> configs = {
      {"user file", StorageKind::kUserFile, ""},
      {"POSTGRES file", StorageKind::kPostgresFile, ""},
      {"f-chunk", StorageKind::kFChunk, ""},
      {"f-chunk (30% compression)", StorageKind::kFChunk, "rle"},
      {"v-segment (30% compression)", StorageKind::kVSegment, "rle"},
      {"f-chunk (50% compression)", StorageKind::kFChunk, "lzss"},
  };

  std::printf("Figure 1: Storage Used by the Various Large Object "
              "Implementations\n");
  std::printf("(%.1f MB object = %llu frames x 4096 bytes)\n\n",
              static_cast<double>(scale.num_frames * kFrameSize) / 1e6,
              static_cast<unsigned long long>(scale.num_frames));
  std::printf("%-30s %14s %14s %14s %14s\n", "Implementation", "data",
              "B-tree index", "2-level map", "total");

  std::vector<StatsSnapshot> snapshots(configs.size());
  for (const BenchConfig& config : configs) {
    // Fresh database per row so footprints are isolated.
    std::string dir = workdir + "/" + std::to_string(&config - &configs[0]);
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
    run.StartConfig(config.name, &db, ConfigInfo(config));
    LoBenchRunner runner(&db, scale);
    SimTimer create_timer(&db.clock());
    Result<Oid> oid = runner.CreateObject(config);
    if (!oid.ok()) {
      std::fprintf(stderr, "create %s failed: %s\n", config.name.c_str(),
                   oid.status().ToString().c_str());
      return 1;
    }
    run.RecordResult("create", create_timer.ElapsedSeconds());
    Result<LargeObject::StorageFootprint> fp = runner.Footprint(*oid);
    if (!fp.ok()) {
      std::fprintf(stderr, "footprint failed: %s\n",
                   fp.status().ToString().c_str());
      return 1;
    }
    std::printf("%-30s %14llu %14llu %14llu %14llu\n", config.name.c_str(),
                static_cast<unsigned long long>(fp->data_bytes),
                static_cast<unsigned long long>(fp->index_bytes),
                static_cast<unsigned long long>(fp->map_bytes),
                static_cast<unsigned long long>(fp->total()));
    run.RecordValue("create", "data_bytes",
                    static_cast<double>(fp->data_bytes));
    run.RecordValue("create", "index_bytes",
                    static_cast<double>(fp->index_bytes));
    run.RecordValue("create", "map_bytes", static_cast<double>(fp->map_bytes));
    run.RecordValue("create", "total_bytes", static_cast<double>(fp->total()));
    snapshots[&config - &configs[0]] = db.Stats();
    run.FinishConfig();
  }

  std::vector<std::string> columns;
  for (const auto& config : configs) columns.push_back(config.name);
  std::printf("\n%s",
              FormatStatsTable(
                  "Physical operations per config (object creation)",
                  columns, snapshots)
                  .c_str());

  std::printf(
      "\nPaper's corresponding rows (bytes): user file 51,200,000; "
      "POSTGRES file 51,200,000;\n"
      "f-chunk data 51,838,976 + B-tree 270,336; f-chunk 30%% data "
      "51,838,976 (no space saved);\n"
      "v-segment 30%% data 36,290,560 + map 507,904 + B-tree 188,416; "
      "f-chunk 50%% data 25,919,488.\n"
      "Shape checks: 30%% f-chunk saves nothing (one >half-page chunk per "
      "page);\n"
      "50%% f-chunk halves storage (two chunks per page); v-segment 30%% "
      "saves ~30%%.\n");
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

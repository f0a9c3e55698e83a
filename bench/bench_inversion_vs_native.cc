// Reproduces §10's summary claim: "As our measurements demonstrate, the
// Inversion approach is within 1/3 of the performance of the native file
// system. This is especially attractive because time-travel, transactions
// and compression are automatically available."
//
// Unlike bench_figure2 (raw large-object API), this drives the *file
// system* interface end to end: path resolution over the DIRECTORY class,
// FILESTAT maintenance, then large-object I/O — against the same workload
// on the simulated native UNIX file system.
//
// Run: bench_inversion_vs_native [--quick] [--profile]
//                                [--trace=FILE] [--json=FILE] [workdir]
// Results are written to BENCH_inversion_vs_native[_quick].json
// (pglo-bench-v1 schema; see DESIGN.md §9) unless --no-json is given.

#include <cstdio>
#include <cstdlib>

#include "bench/harness.h"
#include "common/random.h"
#include "inversion/inversion_fs.h"

namespace pglo {
namespace bench {
namespace {

/// 10 MB file at full scale (the file is scale.seq_frames frames long).

struct Timings {
  double seq_write = 0, seq_read = 0, rand_read = 0;
};

Result<Timings> RunNative(Database* db, const WorkloadScale& scale) {
  Timings t;
  FrameParams params;
  const uint64_t file_frames = scale.seq_frames;
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, db->ufs().Create("native.dat"));
  {
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < file_frames; ++i) {
      Bytes frame = MakeFrame(kCreateSeed, i, params);
      PGLO_RETURN_IF_ERROR(
          db->ufs().WriteAt(ino, i * kFrameSize, Slice(frame)));
    }
    PGLO_RETURN_IF_ERROR(db->ufs().Sync());
    t.seq_write = timer.ElapsedSeconds();
  }
  Bytes buf(kFrameSize);
  {
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < file_frames; ++i) {
      PGLO_ASSIGN_OR_RETURN(size_t n, db->ufs().ReadAt(ino, i * kFrameSize,
                                                       kFrameSize,
                                                       buf.data()));
      if (n != kFrameSize) return Status::Internal("short read");
    }
    t.seq_read = timer.ElapsedSeconds();
  }
  {
    Random rng(7);
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < scale.rand_frames; ++i) {
      uint64_t frame = rng.Uniform(file_frames);
      PGLO_ASSIGN_OR_RETURN(
          size_t n, db->ufs().ReadAt(ino, frame * kFrameSize, kFrameSize,
                                     buf.data()));
      if (n != kFrameSize) return Status::Internal("short read");
    }
    t.rand_read = timer.ElapsedSeconds();
  }
  return t;
}

Result<Timings> RunInversion(Database* db, InversionFs* fs,
                             const LoSpec& spec, const std::string& path,
                             const WorkloadScale& scale) {
  Timings t;
  FrameParams params;
  std::unique_ptr<Session> session = db->Connect();
  const uint64_t file_frames = scale.seq_frames;
  {
    Transaction* txn = session->Begin();
    PGLO_RETURN_IF_ERROR(fs->Create(txn, path, spec).status());
    PGLO_RETURN_IF_ERROR(session->Commit().status());
  }
  {
    Transaction* txn = session->Begin();
    PGLO_ASSIGN_OR_RETURN(auto file, fs->Open(txn, path, /*writable=*/true));
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < file_frames; ++i) {
      Bytes frame = MakeFrame(kCreateSeed, i, params);
      PGLO_RETURN_IF_ERROR(file->Write(Slice(frame)));
    }
    PGLO_RETURN_IF_ERROR(session->Commit().status());
    t.seq_write = timer.ElapsedSeconds();
  }
  Bytes buf(kFrameSize);
  {
    Transaction* txn = session->Begin();
    PGLO_ASSIGN_OR_RETURN(auto file, fs->Open(txn, path, false));
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < file_frames; ++i) {
      PGLO_ASSIGN_OR_RETURN(size_t n, file->Read(kFrameSize, buf.data()));
      if (n != kFrameSize) return Status::Internal("short read");
    }
    t.seq_read = timer.ElapsedSeconds();
    PGLO_RETURN_IF_ERROR(session->Commit().status());
  }
  {
    Transaction* txn = session->Begin();
    PGLO_ASSIGN_OR_RETURN(auto file, fs->Open(txn, path, false));
    Random rng(7);
    SimTimer timer(&db->clock());
    for (uint64_t i = 0; i < scale.rand_frames; ++i) {
      uint64_t frame = rng.Uniform(file_frames);
      PGLO_RETURN_IF_ERROR(
          file->Seek(static_cast<int64_t>(frame * kFrameSize), Whence::kSet)
              .status());
      PGLO_ASSIGN_OR_RETURN(size_t n, file->Read(kFrameSize, buf.data()));
      if (n != kFrameSize) return Status::Internal("short read");
    }
    t.rand_read = timer.ElapsedSeconds();
    PGLO_RETURN_IF_ERROR(session->Commit().status());
  }
  return t;
}

int Main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv, "inversion_vs_native",
                                  "/tmp/pglo_bench_inv");
  const std::string& workdir = args.workdir;
  int rc = std::system(("rm -rf '" + workdir + "'").c_str());
  (void)rc;
  const WorkloadScale scale = ScaleFor(args.quick);
  BenchRun run(args);

  Database db;
  DatabaseOptions options = PaperOptions(workdir + "/db");
  if (args.readahead >= 0) {
    options.readahead_pages = static_cast<uint32_t>(args.readahead);
  }
  Status s = db.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  InversionFs fs(db.context(), &db.large_objects());
  {
    std::unique_ptr<Session> boot = db.Connect();
    Transaction* txn = boot->Begin();
    s = fs.Bootstrap(txn);
    if (s.ok()) s = boot->Commit().status();
    if (!s.ok()) {
      std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // All three columns share one Database; each still gets its own config
  // (and Chrome-trace process) so counters and spans stay attributable.
  run.StartConfig("native", &db, {{"kind", "ufs"}});
  Result<Timings> native = RunNative(&db, scale);
  if (native.ok()) {
    run.RecordResult("seq_write", native->seq_write);
    run.RecordResult("seq_read", native->seq_read);
    run.RecordResult("rand_read", native->rand_read);
  }
  run.FinishConfig();

  LoSpec fchunk_spec;
  run.StartConfig("inversion f-chunk", &db, {{"kind", "fchunk"}});
  Result<Timings> fchunk =
      RunInversion(&db, &fs, fchunk_spec, "/inv_fchunk.dat", scale);
  if (fchunk.ok()) {
    run.RecordResult("seq_write", fchunk->seq_write);
    run.RecordResult("seq_read", fchunk->seq_read);
    run.RecordResult("rand_read", fchunk->rand_read);
  }
  run.FinishConfig();

  LoSpec vseg_spec;
  vseg_spec.kind = StorageKind::kVSegment;
  vseg_spec.codec = "lzss";
  vseg_spec.max_segment = static_cast<uint32_t>(kFrameSize);
  run.StartConfig("inversion v-segment lzss", &db,
                  {{"kind", "vsegment"}, {"codec", "lzss"}});
  Result<Timings> vseg =
      RunInversion(&db, &fs, vseg_spec, "/inv_vseg.dat", scale);
  if (vseg.ok()) {
    run.RecordResult("seq_write", vseg->seq_write);
    run.RecordResult("seq_read", vseg->seq_read);
    run.RecordResult("rand_read", vseg->rand_read);
  }
  run.FinishConfig();

  if (!native.ok() || !fchunk.ok() || !vseg.ok()) {
    std::fprintf(stderr, "bench failed: %s %s %s\n",
                 native.status().ToString().c_str(),
                 fchunk.status().ToString().c_str(),
                 vseg.status().ToString().c_str());
    return 1;
  }

  std::printf("Inversion file system vs native file system "
              "(10 MB file, simulated seconds)\n\n");
  std::printf("%-22s %12s %12s %14s\n", "Operation", "native",
              "Inversion", "Inv. (v-seg+lzss)");
  std::printf("%-22s %12.1f %12.1f %14.1f\n", "sequential write",
              native->seq_write, fchunk->seq_write, vseg->seq_write);
  std::printf("%-22s %12.1f %12.1f %14.1f\n", "sequential read",
              native->seq_read, fchunk->seq_read, vseg->seq_read);
  std::printf("%-22s %12.1f %12.1f %14.1f\n", "1MB random read",
              native->rand_read, fchunk->rand_read, vseg->rand_read);

  std::printf("\nShape check (§10): \"the Inversion approach is within 1/3 "
              "of the performance of\nthe native file system\" — "
              "sequential read ratio %.2fx (claim: <= ~1.33x),\nwith "
              "time travel, transactions and compression included.\n",
              fchunk->seq_read / native->seq_read);
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

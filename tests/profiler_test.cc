#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "db/database.h"
#include "device/sim_clock.h"
#include "obs/trace_export.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

TraceEvent Event(const char* name, uint64_t begin, uint64_t end,
                 uint32_t depth, uint64_t detail = 0) {
  TraceEvent e;
  e.name = name;
  e.begin_ns = begin;
  e.end_ns = end;
  e.depth = depth;
  e.detail = detail;
  return e;
}

TEST(ProfilerTest, LayerOfStripsLastComponent) {
  EXPECT_EQ(Profiler::LayerOf("bufpool.get"), "bufpool");
  EXPECT_EQ(Profiler::LayerOf("smgr.disk.read"), "smgr.disk");
  EXPECT_EQ(Profiler::LayerOf("device.worm-cache.write"), "device.worm-cache");
  EXPECT_EQ(Profiler::LayerOf("nodots"), "nodots");
}

TEST(ProfilerTest, ReconstructsTreeAndAttributesSelfTime) {
  Profiler profiler;
  // One operation tree, delivered in completion (innermost-first) order:
  //   lo.fchunk.read [0,100]
  //     bufpool.get [10,30]
  //       smgr.disk.read [15,25]
  //         device.disk.read [16,24] (2 seeks)
  //     bufpool.get [40,80]
  profiler.OnSpan(Event("device.disk.read", 16, 24, 3, 2));
  profiler.OnSpan(Event("smgr.disk.read", 15, 25, 2));
  profiler.OnSpan(Event("bufpool.get", 10, 30, 1));
  profiler.OnSpan(Event("bufpool.get", 40, 80, 1));
  profiler.OnSpan(Event("lo.fchunk.read", 0, 100, 0));

  const Profiler::OpProfile* op = profiler.Find("lo.fchunk.read");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->calls, 1u);
  EXPECT_EQ(op->total_ns, 100u);
  // Root self = 100 - (20 + 40) from its two direct bufpool children.
  EXPECT_EQ(op->self_ns, 40u);

  ASSERT_EQ(op->layers.size(), 3u);
  const Profiler::LayerStat& bufpool = op->layers.at("bufpool");
  EXPECT_EQ(bufpool.calls, 2u);
  EXPECT_EQ(bufpool.self_ns, 50u);  // (20-10) + 40
  const Profiler::LayerStat& smgr = op->layers.at("smgr.disk");
  EXPECT_EQ(smgr.calls, 1u);
  EXPECT_EQ(smgr.self_ns, 2u);  // 10 - 8
  const Profiler::LayerStat& device = op->layers.at("device.disk");
  EXPECT_EQ(device.calls, 1u);
  EXPECT_EQ(device.self_ns, 8u);
  EXPECT_EQ(device.detail, 2u);

  // Self times partition the root duration exactly.
  EXPECT_EQ(op->self_ns + op->ChildNs(), op->total_ns);
  EXPECT_LE(op->ChildNs(), op->total_ns);

  std::string report = profiler.ToString();
  EXPECT_NE(report.find("lo.fchunk.read"), std::string::npos);
  EXPECT_NE(report.find("device.disk"), std::string::npos);
  EXPECT_NE(report.find("seeks"), std::string::npos);
}

TEST(ProfilerTest, ReportNamesDetailByLayer) {
  Profiler profiler;
  // Device spans carry seeks; smgr and pool write-back spans carry the
  // blocks their commands moved.
  profiler.OnSpan(Event("device.disk.write", 12, 18, 3, 1));
  profiler.OnSpan(Event("smgr.disk.write", 11, 19, 2, 5));
  profiler.OnSpan(Event("bufpool.writeback", 10, 20, 1, 5));
  profiler.OnSpan(Event("lo.fchunk.write", 0, 30, 0));
  std::string report = profiler.ToString();
  auto line = [&report](const std::string& layer) {
    size_t at = report.find("-> " + layer + " ");
    if (at == std::string::npos) return std::string();
    return report.substr(at, report.find('\n', at) - at);
  };
  EXPECT_NE(line("device.disk").find("(1 seeks)"), std::string::npos)
      << report;
  EXPECT_NE(line("smgr.disk").find("(5 blocks)"), std::string::npos)
      << report;
  EXPECT_NE(line("bufpool").find("(5 blocks)"), std::string::npos) << report;
}

TEST(ProfilerTest, AggregatesRepeatedOperations) {
  Profiler profiler;
  for (int i = 0; i < 3; ++i) {
    uint64_t base = 1000 * i;
    profiler.OnSpan(Event("bufpool.get", base + 5, base + 15, 1));
    profiler.OnSpan(Event("lo.vseg.read", base, base + 50, 0));
  }
  const Profiler::OpProfile* op = profiler.Find("lo.vseg.read");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->calls, 3u);
  EXPECT_EQ(op->total_ns, 150u);
  EXPECT_EQ(op->self_ns, 120u);
  EXPECT_EQ(op->layers.at("bufpool").self_ns, 30u);
  EXPECT_EQ(op->latency.count(), 3u);
  EXPECT_EQ(op->latency.max_ns(), 50u);
}

TEST(ProfilerTest, DepthZeroCompletionDropsOrphans) {
  Profiler profiler;
  // A depth-2 span with no enclosing depth-1 parent ever completing (its
  // would-be parent was, say, on a disabled code path). The next depth-0
  // completion adopts what it encloses and discards the rest.
  profiler.OnSpan(Event("smgr.disk.read", 5, 10, 2));
  profiler.OnSpan(Event("lo.fchunk.read", 0, 20, 0));
  const Profiler::OpProfile* op = profiler.Find("lo.fchunk.read");
  ASSERT_NE(op, nullptr);
  // The depth-2 span is inside the root's window, so it is adopted as a
  // direct child despite the depth gap.
  EXPECT_EQ(op->layers.at("smgr.disk").self_ns, 5u);
  EXPECT_EQ(op->self_ns, 15u);

  // Nothing pending leaks into the next tree.
  profiler.OnSpan(Event("lo.fchunk.read", 100, 120, 0));
  op = profiler.Find("lo.fchunk.read");
  EXPECT_EQ(op->calls, 2u);
  EXPECT_EQ(op->total_ns, 40u);
}

TEST(ProfilerTest, ResetClearsEverything) {
  Profiler profiler;
  profiler.OnSpan(Event("lo.fchunk.read", 0, 10, 0));
  EXPECT_FALSE(profiler.profiles().empty());
  profiler.Reset();
  EXPECT_TRUE(profiler.profiles().empty());
  EXPECT_EQ(profiler.Find("lo.fchunk.read"), nullptr);
}

TEST(ProfilerTest, ToJsonIsValidJson) {
  Profiler profiler;
  profiler.OnSpan(Event("device.disk.read", 2, 8, 1, 1));
  profiler.OnSpan(Event("lo.fchunk.read", 0, 10, 0));
  Result<JsonValue> doc = ParseJson(profiler.ToJson());
  ASSERT_OK(doc.status());
  const JsonValue* ops = doc.value().Get("ops");
  ASSERT_NE(ops, nullptr);
  const JsonValue* op = ops->Get("lo.fchunk.read");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->GetNumber("calls"), 1.0);
  EXPECT_EQ(op->GetNumber("total_ns"), 10.0);
  const JsonValue* layers = op->Get("layers");
  ASSERT_NE(layers, nullptr);
  EXPECT_NE(layers->Get("device.disk"), nullptr);
}

TEST(ProfilerTest, LiveSpansThroughRegistry) {
  SimClock clock;
  StatsRegistry reg;
  reg.SetClock(&clock);
  Profiler profiler;
  reg.SetTraceSink(&profiler);
  {
    TraceSpan op(&reg, nullptr, "lo.fchunk.read");
    clock.Advance(10);
    {
      TraceSpan get(&reg, nullptr, "bufpool.get");
      clock.Advance(30);
    }
    clock.Advance(5);
  }
  const Profiler::OpProfile* op = profiler.Find("lo.fchunk.read");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->total_ns, 45u);
  EXPECT_EQ(op->self_ns, 15u);
  EXPECT_EQ(op->layers.at("bufpool").self_ns, 30u);
}

/// The ISSUE acceptance assertion: profile a cold f-chunk sequential read
/// end to end and check the attributed child layer times never exceed the
/// operation total.
TEST(ProfilerTest, ColdFChunkSequentialReadAttributionAddsUp) {
  TempDir dir;
  std::string db_dir = dir.Sub("db");
  constexpr size_t kFrame = 4096;
  constexpr size_t kFrames = 256;  // 1 MB object
  {
    Database db;
    DatabaseOptions options;
    options.dir = db_dir;
    ASSERT_OK(db.Open(options));
    auto session = db.Connect();
    Transaction* txn = session->Begin();
    LoSpec spec;
    spec.kind = StorageKind::kFChunk;
    ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
    ASSERT_OK_AND_ASSIGN(auto lo, db.large_objects().Instantiate(txn, oid));
    std::string frame(kFrame, 'x');
    for (size_t i = 0; i < kFrames; ++i) {
      ASSERT_OK(lo->Write(txn, i * kFrame, Slice(frame)));
    }
    ASSERT_OK(session->Commit().status());
    ASSERT_OK(db.Close());
  }

  // Reopen: the buffer pool is empty, so the sequential read is cold and
  // has to descend through bufpool → smgr → device.
  Database db;
  DatabaseOptions options;
  options.dir = db_dir;
  ASSERT_OK(db.Open(options));
  ASSERT_NE(db.stats_registry(), nullptr);
  Profiler profiler;
  db.stats_registry()->SetTraceSink(&profiler);

  auto session = db.Connect();

  Transaction* txn = session->Begin();
  ASSERT_OK_AND_ASSIGN(auto objects, db.large_objects().List(txn));
  ASSERT_EQ(objects.size(), 1u);
  ASSERT_OK_AND_ASSIGN(auto lo,
                       db.large_objects().Instantiate(txn, objects[0].oid));
  std::vector<uint8_t> buf(kFrame);
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_OK_AND_ASSIGN(size_t n,
                         lo->Read(txn, i * kFrame, kFrame, buf.data()));
    ASSERT_EQ(n, kFrame);
  }
  ASSERT_OK(session->Commit().status());
  db.stats_registry()->SetTraceSink(nullptr);

  const Profiler::OpProfile* op = profiler.Find("lo.fchunk.read");
  ASSERT_NE(op, nullptr) << profiler.ToString();
  EXPECT_EQ(op->calls, kFrames);
  EXPECT_GT(op->total_ns, 0u);
  // The acceptance check: child layer time can never exceed the total.
  EXPECT_LE(op->ChildNs(), op->total_ns);
  EXPECT_EQ(op->self_ns + op->ChildNs(), op->total_ns);
  // A cold read must have descended at least into the buffer pool.
  EXPECT_FALSE(op->layers.empty()) << profiler.ToString();
  EXPECT_GT(op->layers.count("bufpool"), 0u) << profiler.ToString();

  // The invariant holds for every profiled operation, not just the read.
  for (const auto& [name, profile] : profiler.profiles()) {
    EXPECT_LE(profile.ChildNs(), profile.total_ns) << name;
  }
  ASSERT_OK(db.Close());
}

TEST(ChromeTraceWriterTest, ProducesLoadableTraceFile) {
  TempDir dir;
  std::string path = dir.Sub("trace.json");
  {
    ASSERT_OK_AND_ASSIGN(auto writer, ChromeTraceWriter::Open(path));
    writer->BeginProcess("config-a");
    TraceEvent inner = Event("bufpool.get", 10, 30, 1);
    TraceEvent outer = Event("lo.fchunk.read", 0, 100, 0, 3);
    writer->OnSpan(inner);
    writer->OnSpan(outer);
    writer->BeginProcess("config-b");
    TraceEvent other = Event("lo.vseg.read", 0, 50, 0);
    writer->OnSpan(other);
    ASSERT_OK(writer->Finish());
  }

  Result<JsonValue> doc = ParseJsonFile(path);
  ASSERT_OK(doc.status());
  const JsonValue* events = doc.value().Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Two process_name metadata records + three X events.
  ASSERT_EQ(events->array.size(), 5u);

  int metadata = 0, complete = 0;
  for (const JsonValue& e : events->array) {
    std::string ph = e.GetString("ph");
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.GetString("name"), "process_name");
    } else if (ph == "X") {
      ++complete;
      EXPECT_GE(e.GetNumber("dur"), 0.0);
      EXPECT_NE(e.Get("pid"), nullptr);
    }
  }
  EXPECT_EQ(metadata, 2);
  EXPECT_EQ(complete, 3);

  // Events from the second config carry the second pid.
  const JsonValue& last = events->array.back();
  EXPECT_EQ(last.GetString("name"), "lo.vseg.read");
  EXPECT_EQ(last.GetNumber("pid"), 2.0);
}

TEST(TeeSinkTest, FansOutToEverySink) {
  Profiler a, b;
  TeeSink tee;
  EXPECT_TRUE(tee.empty());
  tee.Add(&a);
  tee.Add(nullptr);  // ignored
  tee.Add(&b);
  EXPECT_FALSE(tee.empty());
  tee.OnSpan(Event("lo.fchunk.read", 0, 10, 0));
  EXPECT_NE(a.Find("lo.fchunk.read"), nullptr);
  EXPECT_NE(b.Find("lo.fchunk.read"), nullptr);
}

}  // namespace
}  // namespace pglo

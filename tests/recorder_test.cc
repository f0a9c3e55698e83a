// Flight recorder, event log, and black-box dump (DESIGN.md §12): ring
// retention and wraparound, slow-op budget boundary, snapshot-delta
// sampling, JSON parse-back of the dump through src/common/json, and the
// end-to-end injected-crash dump a failing crash point leaves behind.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "db/database.h"
#include "device/sim_clock.h"
#include "fault/fault_injector.h"
#include "obs/event_log.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;

TEST(EventLogTest, AppendAndReadBack) {
  EventLog log(8);
  SimClock clock;
  log.SetClock(&clock);
  clock.Advance(42);
  log.Append(EventType::kTxnBegin, "", 7);
  clock.Advance(8);
  log.Append(EventType::kTxnCommit, "", 7, 3);

  ASSERT_EQ(log.size(), 2u);
  std::vector<StructuredEvent> events = log.Events();
  EXPECT_EQ(events[0].type, EventType::kTxnBegin);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].sim_ns, 42u);
  EXPECT_EQ(events[0].a, 7u);
  EXPECT_EQ(events[1].type, EventType::kTxnCommit);
  EXPECT_EQ(events[1].sim_ns, 50u);
  EXPECT_EQ(events[1].b, 3u);
  EXPECT_EQ(log.CountOf(EventType::kTxnBegin), 1u);
  EXPECT_EQ(log.CountOf(EventType::kTxnAbort), 0u);
}

TEST(EventLogTest, RingWraparoundKeepsNewestEvents) {
  EventLog log(4);
  for (uint64_t i = 0; i < 10; ++i) {
    log.Append(EventType::kIoRetry, "site", i);
  }
  // The ring holds the LAST capacity events; everything older is dropped
  // but still counted.
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  std::vector<StructuredEvent> events = log.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);  // oldest-first: seqs 6..9
    EXPECT_EQ(events[i].a, 6 + i);
  }
  // Appends after wrapping keep rotating the same slots.
  log.Append(EventType::kIoRetry, "site", 10);
  events = log.Events();
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
}

TEST(EventLogTest, EventTypeNamesAreDotted) {
  // The dotted names are load-bearing: pglo_top and tests filter on them.
  EXPECT_STREQ(EventTypeName(EventType::kTxnBegin), "txn.begin");
  EXPECT_STREQ(EventTypeName(EventType::kCrashInjected), "fault.crash");
  EXPECT_STREQ(EventTypeName(EventType::kRecoveryRepair), "recovery.repair");
  EXPECT_STREQ(EventTypeName(EventType::kReadAheadRamp), "readahead.ramp");
  EXPECT_STREQ(EventTypeName(EventType::kSlowOp), "slow_op.captured");
  EXPECT_STREQ(EventTypeName(EventType::kCrashDump), "recorder.dump");
}

class RecorderFixture : public ::testing::Test {
 protected:
  void Init(const FlightRecorderOptions& options) {
    registry_.SetClock(&clock_);
    recorder_ = std::make_unique<FlightRecorder>(options, &registry_);
    registry_.SetRecorder(recorder_.get());
  }

  /// Emits one top-level span of `dur` simulated nanoseconds.
  void Span(const char* name, uint64_t dur) {
    TraceSpan span(&registry_, nullptr, name);
    clock_.Advance(dur);
  }

  SimClock clock_;
  StatsRegistry registry_;
  std::unique_ptr<FlightRecorder> recorder_;
};

TEST_F(RecorderFixture, TraceRingWrapsKeepingNewestSpans) {
  FlightRecorderOptions options;
  options.trace_capacity = 4;
  Init(options);
  for (int i = 0; i < 10; ++i) Span("op", 100);
  EXPECT_EQ(recorder_->total_spans(), 10u);
  std::vector<FlightRecorder::RecordedSpan> tail = recorder_->TraceTail();
  ASSERT_EQ(tail.size(), 4u);
  // Oldest-first, and the oldest retained span is the 7th (begin at 600).
  EXPECT_EQ(tail.front().begin_ns, 600u);
  EXPECT_EQ(tail.back().begin_ns, 900u);
  EXPECT_EQ(tail.back().end_ns, 1000u);
  for (const auto& span : tail) EXPECT_EQ(span.name, "op");
}

TEST_F(RecorderFixture, SlowOpExactlyAtBudgetIsNotCaptured) {
  FlightRecorderOptions options;
  options.slow_op_budget_ns = 100;
  Init(options);
  Span("at-budget", 100);  // exactly at budget: within it
  EXPECT_EQ(recorder_->total_slow_ops(), 0u);
  EXPECT_EQ(recorder_->events().CountOf(EventType::kSlowOp), 0u);
  Span("over-budget", 101);  // strictly over: captured
  EXPECT_EQ(recorder_->total_slow_ops(), 1u);
  ASSERT_EQ(recorder_->SlowOps().size(), 1u);
  EXPECT_EQ(recorder_->SlowOps()[0].root.name, "over-budget");
  EXPECT_EQ(recorder_->events().CountOf(EventType::kSlowOp), 1u);
}

TEST_F(RecorderFixture, SlowOpCapturesTheFullSpanTree) {
  FlightRecorderOptions options;
  options.slow_op_budget_ns = 10;
  Init(options);
  {
    TraceSpan outer(&registry_, nullptr, "lo.fchunk.read");
    clock_.Advance(5);
    {
      TraceSpan mid(&registry_, nullptr, "bufpool.get");
      clock_.Advance(3);
      {
        TraceSpan inner(&registry_, nullptr, "smgr.disk.read");
        clock_.Advance(4);
      }
    }
    clock_.Advance(2);
  }
  ASSERT_EQ(recorder_->total_slow_ops(), 1u);
  std::vector<FlightRecorder::SlowOp> ops = recorder_->SlowOps();
  ASSERT_EQ(ops.size(), 1u);
  const FlightRecorder::SpanNode& root = ops[0].root;
  EXPECT_EQ(root.name, "lo.fchunk.read");
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "bufpool.get");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "smgr.disk.read");
  // A fast op afterwards leaves no residue from the pending stack.
  Span("quick", 1);
  EXPECT_EQ(recorder_->total_slow_ops(), 1u);
}

TEST_F(RecorderFixture, SlowOpRingWrapsKeepingNewest) {
  FlightRecorderOptions options;
  options.slow_op_budget_ns = 1;
  options.slow_op_capacity = 2;
  Init(options);
  Span("a", 10);
  Span("b", 10);
  Span("c", 10);
  EXPECT_EQ(recorder_->total_slow_ops(), 3u);
  std::vector<FlightRecorder::SlowOp> ops = recorder_->SlowOps();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].root.name, "b");
  EXPECT_EQ(ops[1].root.name, "c");
}

TEST_F(RecorderFixture, SlowOpTreesKeepEachThreadsOwnSpans) {
  // Two backends with operations open at once: each captured tree holds
  // its own thread's inner span, never the other's.
  FlightRecorderOptions options;
  options.slow_op_budget_ns = 1;
  Init(options);
  std::barrier sync(2);
  auto backend = [&](const std::string& name) {
    TraceSpan outer(&registry_, nullptr, name);
    sync.arrive_and_wait();  // both outer spans are open
    {
      std::string inner_name = name + ".inner";
      TraceSpan inner(&registry_, nullptr, inner_name);
      clock_.Advance(5);
    }
    sync.arrive_and_wait();  // both inner spans are complete
    clock_.Advance(5);
  };
  std::thread a(backend, "a");
  std::thread b(backend, "b");
  a.join();
  b.join();
  std::vector<FlightRecorder::SlowOp> ops = recorder_->SlowOps();
  ASSERT_EQ(ops.size(), 2u);
  for (const FlightRecorder::SlowOp& op : ops) {
    ASSERT_EQ(op.root.children.size(), 1u) << op.root.name;
    EXPECT_EQ(op.root.children[0].name, op.root.name + ".inner");
  }
}

TEST_F(RecorderFixture, ConcurrentSpansMergeIntoOneTail) {
  // Four backends record at once, sampling a delta on nearly every op,
  // while a reader takes the tail. The tail is the newest spans of all of
  // them: each backend's retained spans are its last ones, in order.
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kSpans = 2000;
  FlightRecorderOptions options;
  options.trace_capacity = 64;
  options.snapshot_interval_ns = 1;
  Init(options);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      EXPECT_LE(recorder_->TraceTail().size(), options.trace_capacity);
    }
  });
  std::vector<std::thread> backends;
  for (uint64_t t = 0; t < kThreads; ++t) {
    backends.emplace_back([&, t] {
      for (uint64_t i = 0; i < kSpans; ++i) {
        TraceSpan span(&registry_, nullptr, "op");
        span.AddDetail(t * kSpans + i + 1);
        clock_.Advance(1);
      }
    });
  }
  for (std::thread& th : backends) th.join();
  done = true;
  reader.join();
  EXPECT_EQ(recorder_->total_spans(), kThreads * kSpans);
  EXPECT_GT(recorder_->total_deltas(), 0u);
  std::vector<FlightRecorder::RecordedSpan> tail = recorder_->TraceTail();
  ASSERT_EQ(tail.size(), options.trace_capacity);
  std::vector<uint64_t> kept(kThreads, 0);
  std::vector<uint64_t> prev(kThreads, 0);
  for (const FlightRecorder::RecordedSpan& span : tail) {
    const uint64_t t = (span.detail - 1) / kSpans;
    ASSERT_LT(t, kThreads);
    EXPECT_GT(span.detail, prev[t]);
    prev[t] = span.detail;
    ++kept[t];
  }
  for (uint64_t t = 0; t < kThreads; ++t) {
    if (kept[t] > 0) {
      EXPECT_EQ(prev[t], (t + 1) * kSpans) << "backend " << t;
    }
  }
}

TEST_F(RecorderFixture, SnapshotDeltasSampleOnIntervalTicks) {
  FlightRecorderOptions options;
  options.snapshot_interval_ns = 1000;
  Init(options);
  Counter* reads = registry_.counter("layer.reads");

  reads->Add(3);
  Span("op", 400);  // ends at 400 < 1000: no sample yet
  EXPECT_EQ(recorder_->total_deltas(), 0u);
  reads->Add(2);
  Span("op", 700);  // ends at 1100 >= 1000: first sample
  ASSERT_EQ(recorder_->total_deltas(), 1u);
  // The delta covers everything since the beginning: 5 reads plus the two
  // op histogram-less spans contribute nothing else.
  std::vector<FlightRecorder::SnapshotDelta> deltas = recorder_->Deltas();
  const FlightRecorder::SnapshotDelta& first = deltas[0];
  EXPECT_EQ(first.sim_ns, 1100u);
  ASSERT_EQ(first.counters.size(), 1u);
  EXPECT_EQ(first.counters[0].first, "layer.reads");
  EXPECT_EQ(first.counters[0].second, 5u);

  // A long quiet stretch skips whole missed intervals: one sample, not a
  // burst of empties.
  reads->Add(1);
  Span("op", 5000);  // ends at 6100
  ASSERT_EQ(recorder_->total_deltas(), 2u);
  EXPECT_EQ(recorder_->Deltas()[1].counters.size(), 1u);
  EXPECT_EQ(recorder_->Deltas()[1].counters[0].second, 1u);
  // Next tick is aligned after 6100, so a short op does not sample again.
  Span("op", 100);
  EXPECT_EQ(recorder_->total_deltas(), 2u);
}

TEST_F(RecorderFixture, ForceSampleWorksWithFrozenClock) {
  // Fault-injection runs hold the clock at zero (charge_devices=false);
  // the dump path must still capture a final delta.
  Init(FlightRecorderOptions{});
  registry_.counter("layer.writes")->Add(9);
  recorder_->ForceSample();
  ASSERT_EQ(recorder_->total_deltas(), 1u);
  EXPECT_EQ(recorder_->Deltas()[0].sim_ns, 0u);
  ASSERT_EQ(recorder_->Deltas()[0].counters.size(), 1u);
  EXPECT_EQ(recorder_->Deltas()[0].counters[0].second, 9u);
}

TEST_F(RecorderFixture, DumpParsesBackThroughCommonJson) {
  TempDir dir;
  FlightRecorderOptions options;
  options.slow_op_budget_ns = 50;
  Init(options);
  registry_.counter("layer.reads")->Add(17);
  registry_.histogram("layer.op_ns")->Record(123);
  Span("slow-op", 200);
  recorder_->events().Append(EventType::kTxnBegin, "", 1);

  std::string path = dir.Sub("blackbox.json");
  ASSERT_OK(recorder_->DumpToFile(path, "unit-test"));
  ASSERT_OK_AND_ASSIGN(JsonValue dump, ParseJsonFile(path));

  EXPECT_EQ(dump.GetString("schema"), "pglo-blackbox-v1");
  EXPECT_EQ(dump.GetString("reason"), "unit-test");
  // The dump itself logged recorder.dump, on top of txn.begin and the
  // slow-op capture event.
  const JsonValue* events = dump.Get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->GetNumber("total"), 3.0);
  bool saw_dump_event = false;
  for (const JsonValue& e : events->Get("entries")->array) {
    if (e.GetString("type") == "recorder.dump") saw_dump_event = true;
  }
  EXPECT_TRUE(saw_dump_event);

  // DumpToFile force-samples, so the delta ring holds the final state.
  const JsonValue* deltas = dump.Get("snapshot_deltas");
  ASSERT_NE(deltas, nullptr);
  ASSERT_FALSE(deltas->Get("entries")->array.empty());
  const JsonValue& delta = deltas->Get("entries")->array.back();
  EXPECT_EQ(delta.Get("counters")->GetNumber("layer.reads"), 17.0);

  const JsonValue* slow = dump.Get("slow_ops");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->Get("entries")->array.size(), 1u);
  EXPECT_EQ(slow->Get("entries")->array[0].Get("tree")->GetString("name"),
            "slow-op");

  const JsonValue* trace = dump.Get("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->GetNumber("total"), 1.0);

  const JsonValue* final_snapshot = dump.Get("final_snapshot");
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_EQ(final_snapshot->Get("counters")->GetNumber("layer.reads"), 17.0);
  EXPECT_EQ(final_snapshot->Get("histograms")
                ->Get("layer.op_ns")
                ->GetNumber("count"),
            1.0);
}

TEST(DatabaseBlackboxTest, InjectedCrashLeavesParseableDumpWithFaultAndDelta) {
  // The acceptance path: a crash-injected run must leave pglo_blackbox.json
  // containing the injected fault event and a pre-crash snapshot delta.
  TempDir td;
  FaultInjector inj;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  opts.charge_devices = false;
  opts.fault_injector = &inj;
  Database db;
  ASSERT_OK(db.Open(opts));
  ASSERT_NE(db.recorder(), nullptr);

  auto session = db.Connect();

  Transaction* txn = session->Begin();
  LoSpec spec;
  spec.kind = StorageKind::kFChunk;
  spec.smgr = kSmgrWorm;
  ASSERT_OK_AND_ASSIGN(Oid oid, db.large_objects().Create(txn, spec));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<LargeObject> lo,
                       db.large_objects().Instantiate(txn, oid));
  Bytes data(8 * 1024, 0x3A);
  ASSERT_OK(lo->Write(txn, 0, Slice(data)));
  lo.reset();
  ASSERT_OK(session->Commit().status());

  // Crash on the very next stable write.
  ASSERT_OK(db.worm()->CreateFile(99));
  FaultPlan plan;
  plan.crash_after_writes = 1;
  inj.Arm(plan);
  Bytes raw(kPageSize, 0xEE);
  Status s = db.worm()->WriteBlock(99, 0, raw.data());
  ASSERT_TRUE(FaultInjector::IsInjectedCrash(s)) << s.ToString();
  inj.Disarm();

  std::string blackbox = db.blackbox_file();
  ASSERT_OK(db.SimulateCrashAndReopen());

  ASSERT_OK_AND_ASSIGN(JsonValue dump, ParseJsonFile(blackbox));
  EXPECT_EQ(dump.GetString("schema"), "pglo-blackbox-v1");
  EXPECT_EQ(dump.GetString("reason"), "simulated-crash");

  // The injected fault is in the event log...
  bool saw_crash = false;
  bool saw_commit = false;
  for (const JsonValue& e : dump.Get("events")->Get("entries")->array) {
    if (e.GetString("type") == "fault.crash") saw_crash = true;
    if (e.GetString("type") == "txn.commit") saw_commit = true;
  }
  EXPECT_TRUE(saw_crash);
  EXPECT_TRUE(saw_commit);

  // ...and the last pre-crash snapshot delta carries the workload's
  // counters even though the clock never advanced.
  const auto& delta_entries = dump.Get("snapshot_deltas")->Get("entries")->array;
  ASSERT_FALSE(delta_entries.empty());
  EXPECT_FALSE(delta_entries.back().Get("counters")->object.empty());

  // Recovery spared the dump file and the database is healthy.
  ASSERT_OK_AND_ASSIGN(JsonValue again, ParseJsonFile(blackbox));
  EXPECT_EQ(again.GetString("reason"), "simulated-crash");
  ASSERT_OK(db.Close());
}

TEST(DatabaseBlackboxTest, RecorderDisabledMeansNoDumpAndNoRecorder) {
  TempDir td;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  opts.enable_flight_recorder = false;
  Database db;
  ASSERT_OK(db.Open(opts));
  EXPECT_EQ(db.recorder(), nullptr);
  db.LogEvent(EventType::kTxnBegin, "ignored");  // must be a safe no-op
  EXPECT_FALSE(db.DumpBlackbox("nope").ok());
  ASSERT_OK(db.Close());
}

TEST(DatabaseBlackboxTest, DumpBlackboxOnDemand) {
  TempDir td;
  DatabaseOptions opts;
  opts.dir = td.Sub("db");
  Database db;
  ASSERT_OK(db.Open(opts));
  db.LogEvent(EventType::kReadAheadRamp, "manual", 8, 0);
  ASSERT_OK_AND_ASSIGN(std::string path, db.DumpBlackbox("on-demand"));
  EXPECT_EQ(path, db.blackbox_file());
  ASSERT_OK_AND_ASSIGN(JsonValue dump, ParseJsonFile(path));
  EXPECT_EQ(dump.GetString("reason"), "on-demand");
  bool saw_ramp = false;
  for (const JsonValue& e : dump.Get("events")->Get("entries")->array) {
    if (e.GetString("type") == "readahead.ramp" &&
        e.GetString("detail") == "manual") {
      saw_ramp = true;
    }
  }
  EXPECT_TRUE(saw_ramp);
  ASSERT_OK(db.Close());
}

}  // namespace
}  // namespace pglo

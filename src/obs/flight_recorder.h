#ifndef PGLO_OBS_FLIGHT_RECORDER_H_
#define PGLO_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/event_log.h"
#include "obs/span_tree.h"
#include "obs/stats.h"
#include "obs/wait_event.h"

namespace pglo {

/// Sizing and thresholds for one FlightRecorder (DESIGN.md §12).
struct FlightRecorderOptions {
  /// Most recent completed trace spans retained in the span ring.
  size_t trace_capacity = 1024;
  /// Structured events retained (see EventLog).
  size_t event_capacity = 1024;
  /// StatsSnapshot deltas retained in the time-series ring.
  size_t delta_capacity = 256;
  /// Slow-operation span trees retained.
  size_t slow_op_capacity = 16;
  /// Simulated-time distance between snapshot-delta samples. Sampling is
  /// driven by top-level span completions, so a tick lands on the first
  /// operation boundary after the interval elapses — never mid-span.
  uint64_t snapshot_interval_ns = 1'000'000'000;  // 1 simulated second
  /// A top-level operation strictly exceeding this simulated duration has
  /// its full span tree captured. 0 disables slow-op capture (and its
  /// tree-building bookkeeping) entirely.
  uint64_t slow_op_budget_ns = 0;
};

/// Always-on, bounded-memory black box over the StatsRegistry/TraceSink
/// spine (ISSUE 6 tentpole).
///
/// PR 1's stats and PR 2's profiler are pull-based: numbers exist when a
/// bench asks for them, and they die with the process when a crash harness
/// pulls the plug. The flight recorder inverts that: it is installed for
/// the life of the Database in the registry's dedicated recorder slot
/// (independent of the attachable TraceSink benches use), continuously
/// retaining
///
///   1. the most recent N completed TraceSpans (a rolling trace tail),
///   2. periodic StatsSnapshot *deltas* sampled on simulated-time ticks —
///      a rolling time-series of every counter and histogram,
///   3. full span trees of operations that blew a simulated-time budget
///      (the Profiler's nesting discipline, applied selectively), so a p99
///      outlier is explainable after the fact, not just countable,
///   4. a typed structured EventLog (txn lifecycle, fault injections,
///      recovery repairs, read-ahead ramps, retry bursts).
///
/// Everything lives in fixed-size rings: memory is bounded regardless of
/// workload length, and the retained tail is exactly the history leading
/// up to whatever went wrong. Spans are filed per thread, in one of
/// kShards shards with its own lock, ring and tree builder, so backends
/// recording at once neither queue on one lock nor adopt each other's
/// spans into their slow-op trees; one atomic sequence orders spans
/// across shards. On a crash (or a failed Open) the whole
/// recorder serializes to `pglo_blackbox.json` (DumpToFile), which the
/// crash harness attaches to every failing crash point.
///
/// Like every obs component, the recorder never advances the SimClock, so
/// recorder-on and recorder-off runs report bit-identical simulated times
/// (proven by bench_ablation_obs).
class FlightRecorder : public TraceSink {
 public:
  /// One retained completed span (TraceEvent with the name copied out of
  /// its transient string_view).
  struct RecordedSpan {
    std::string name;
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
    uint64_t detail = 0;
    uint32_t depth = 0;
  };

  /// One sampled counter/histogram delta since the previous sample.
  /// Histograms contribute `<name>.count` and `<name>.sum_ns` rows, so the
  /// whole time-series is uniformly (name, delta) pairs, sorted by name.
  struct SnapshotDelta {
    uint64_t seq = 0;
    uint64_t sim_ns = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
  };

  /// A captured slow operation: the full reconstructed span tree.
  using SpanNode = pglo::SpanNode;
  struct SlowOp {
    uint64_t seq = 0;  ///< capture index (total_slow_ops_ at capture time)
    SpanNode root;
  };

  /// `registry` is consulted (never owned) for snapshot sampling; its
  /// clock stamps events and drives the tick schedule.
  FlightRecorder(const FlightRecorderOptions& options,
                 StatsRegistry* registry);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// TraceSink: appends the span to the calling thread's shard ring; builds
  /// that thread's slow-op trees when a budget is set; samples a snapshot
  /// delta when a depth-0 completion crosses the sampling interval.
  void OnSpan(const TraceEvent& event) override;

  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

  /// Lends the recorder the live per-backend activity table, so every
  /// black-box dump carries a pg_stat_activity-style `backends` section:
  /// who was connected, in what txn state, and what each backend was
  /// waiting on at the instant of the dump. Borrowed; must outlive the
  /// recorder (the Database owns both).
  void SetActivity(const BackendActivity* activity) { activity_ = activity; }

  const FlightRecorderOptions& options() const { return options_; }

  /// The newest `trace_capacity` spans across every shard, oldest first.
  std::vector<RecordedSpan> TraceTail() const;
  uint64_t total_spans() const {
    return total_spans_.load(std::memory_order_relaxed);
  }

  /// Retained snapshot deltas, oldest first.
  std::vector<SnapshotDelta> Deltas() const;
  uint64_t total_deltas() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_deltas_;
  }

  /// Unconditionally samples a delta now (the "last pre-crash delta" every
  /// black-box dump must carry, regardless of whether simulated time ever
  /// advanced — fault-injection runs often hold the clock at zero).
  void ForceSample();

  /// Captured slow operations, oldest first.
  std::vector<SlowOp> SlowOps() const;
  uint64_t total_slow_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_slow_ops_;
  }

  /// Serializes the whole recorder (schema "pglo-blackbox-v1"): events,
  /// snapshot-delta time-series, slow ops, trace tail, and a final full
  /// snapshot. `reason` records why the dump was taken.
  std::string ToJson(const std::string& reason);

  /// ForceSample + ToJson + atomic-enough write to `path` (truncate +
  /// rename is overkill for a post-mortem artifact; a torn dump is still
  /// more evidence than none).
  Status DumpToFile(const std::string& path, const std::string& reason);

 private:
  /// Span shards: one per thread slot (ThreadSlot, stats.h), so threads
  /// share one only past kThreadSlots.
  static constexpr size_t kShards = kThreadSlots;

  /// One retained span and its place in the recorder-wide order.
  struct Slot {
    uint64_t seq = 0;
    RecordedSpan span;
  };

  /// The span ring and slow-op tree builder of the threads filing here,
  /// on a cache line of its own.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> ring;
    size_t head = 0;
    SpanTreeBuilder trees;
  };

  /// Called before shard `index` first records while the sequence is not
  /// yet shared: makes it the sole shard, or ends sole numbering.
  void ShareSequence(size_t index);
  /// Retains `root` if its operation ran strictly over budget. Takes mu_.
  void CaptureSlowOp(const TraceEvent& event, SpanNode root);
  /// Samples a delta if `now_ns` reached the next tick. Takes mu_; OnSpan
  /// calls it only once the tick looks due, which it never is with
  /// sampling off.
  void MaybeSample(uint64_t now_ns);
  // *Locked helpers assume mu_ is held by the caller.
  void SampleDeltaLocked(uint64_t now_ns);
  std::vector<SnapshotDelta> DeltasLocked() const;
  std::vector<SlowOp> SlowOpsLocked() const;

  FlightRecorderOptions options_;
  StatsRegistry* registry_;
  const BackendActivity* activity_ = nullptr;
  EventLog events_;

  // Guards the delta and slow-op rings; OnSpan takes it only to store a
  // slow op or a delta. Lock order: dump_mu_, mu_, then shard locks in
  // index order, then EventLog's own lock.
  mutable std::mutex mu_;
  // Serializes DumpToFile invocations (file truncate + write); outermost,
  // taken before mu_.
  std::mutex dump_mu_;

  // Span rings, and the sequence that orders (and counts) their spans.
  std::array<Shard, kShards> shards_;
  std::atomic<uint64_t> total_spans_{0};
  /// The first shard to record. Until a second one records, it advances
  /// total_spans_ by a plain store under its lock, so a single stream pays
  /// no locked add per span; shared_sequence_ is then set (under the sole
  /// shard's lock) and every shard adds atomically from then on.
  std::atomic<size_t> sole_shard_{kShards};
  std::atomic<bool> shared_sequence_{false};

  // Snapshot-delta ring + the previous full snapshot it diffs against.
  std::vector<SnapshotDelta> deltas_;
  size_t delta_head_ = 0;
  uint64_t total_deltas_ = 0;
  /// Written under mu_; read first without it on every depth-0 span. Never
  /// reached (all ones) when sampling is off.
  std::atomic<uint64_t> next_sample_ns_{~uint64_t{0}};
  StatsSnapshot prev_snapshot_;

  // Slow-op capture.
  std::vector<SlowOp> slow_ops_;
  size_t slow_head_ = 0;
  uint64_t total_slow_ops_ = 0;
};

}  // namespace pglo

#endif  // PGLO_OBS_FLIGHT_RECORDER_H_

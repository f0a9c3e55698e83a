#ifndef PGLO_OBS_STATS_H_
#define PGLO_OBS_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "device/sim_clock.h"

namespace pglo {

/// Cross-layer observability (§9 made self-reporting).
///
/// The paper's entire argument is quantitative — I/O counts, storage
/// overheads, elapsed times per large-object implementation — yet a bench
/// harness can only observe a layer from the outside. This subsystem lets
/// every layer the paper measures report its own physical operations:
/// device models register seeks and transfers, the buffer pool its hit
/// rate, each storage manager its block I/O, each large-object
/// implementation its per-op counts and codec time.
///
/// Design constraints, in order:
///   1. Near-zero overhead. A Counter increment is one add, through a
///      pre-resolved pointer, on a cache line of the calling thread's own;
///      layers resolve their counters once at construction, never per
///      operation. When stats are disabled the layer holds a null registry
///      and skips even that.
///   2. Simulated time only. Histograms and trace spans are stamped against
///      the shared SimClock, never the wall clock, so recorded latencies are
///      exactly the simulated seconds the benchmarks report and output is
///      deterministic.
///   3. No clock interference. Nothing here ever *advances* the clock, so a
///      run with stats on reports identical simulated times to a run with
///      stats off.

/// Per-thread slots: the cells of every Counter and Histogram, and the
/// flight recorder's span shards. A constant, like the buffer pool's 16
/// stripes.
inline constexpr size_t kThreadSlots = 16;

namespace internal {
/// Threads that have taken a slot so far, process-wide.
inline std::atomic<size_t> threads_with_slots{0};
}  // namespace internal

/// The calling thread's slot in [0, kThreadSlots). A thread keeps the slot
/// it first gets; slots are handed out round robin, so threads share one
/// only past kThreadSlots.
inline size_t ThreadSlot() {
  // Trivially initialized, so the hot path reads it without a TLS guard.
  static thread_local size_t slot = kThreadSlots;
  if (slot == kThreadSlots) {
    slot = internal::threads_with_slots.fetch_add(
               1, std::memory_order_relaxed) %
           kThreadSlots;
  }
  return slot;
}

/// Slots any thread has taken: cells at or past this index were never
/// written, so a fold stops here. A process with a few threads folds a few
/// cells, not kThreadSlots.
inline size_t ThreadSlotsInUse() {
  return std::min(
      internal::threads_with_slots.load(std::memory_order_relaxed),
      kThreadSlots);
}

/// A named monotonic counter. Obtained from (and owned by) a StatsRegistry;
/// the pointer is stable for the registry's lifetime, so hot paths hold it
/// and increment without any lookup.
///
/// The count lives in one cache-line cell per thread slot, and value()
/// folds them. An increment is a relaxed add on the calling thread's cell,
/// a line no other backend writes until more than kThreadSlots threads
/// run, and threads sharing a cell still lose no update.
class Counter {
 public:
  void Add(uint64_t n) {
    cells_[ThreadSlot()].value.fetch_add(n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }
  uint64_t value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kThreadSlots];
};

/// Latency histogram over simulated nanoseconds: power-of-two buckets
/// (bucket i counts samples in [2^i, 2^(i+1))), plus exact count/sum/min/max.
///
/// Count, sum and buckets live in one cell per thread slot, like Counter's,
/// and every read folds the cells; min and max are single atomics, written
/// (by CAS) only on a new extreme. Concurrent Records never lose samples. A
/// read taken while backends are recording may observe fields from
/// slightly different instants (count from before a Record, sum from
/// after) — acceptable for monitoring output, and impossible in a single
/// execution stream.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  /// Every cell folded into one reading.
  struct Totals {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    uint64_t buckets[kNumBuckets] = {};

    /// Upper bound of the bucket holding the p-th percentile sample
    /// (p in [0, 100]); 0 when empty.
    uint64_t PercentileNs(double p) const;
  };

  void Record(uint64_t ns);
  void Reset();

  /// Folds the cells once. The accessors below each fold; a reader of
  /// several fields folds once and reads them here.
  Totals Fold() const;

  uint64_t count() const { return Fold().count; }
  uint64_t sum_ns() const { return Fold().sum_ns; }
  uint64_t min_ns() const { return Fold().min_ns; }
  uint64_t max_ns() const { return max_.load(std::memory_order_relaxed); }
  double mean_ns() const {
    Totals t = Fold();
    return t.count == 0 ? 0.0 : static_cast<double>(t.sum_ns) / t.count;
  }
  uint64_t PercentileNs(double p) const { return Fold().PercentileNs(p); }
  uint64_t bucket(size_t i) const { return Fold().buckets[i]; }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
  };
  Cell cells_[kThreadSlots];
  std::atomic<uint64_t> min_{~0ull};
  std::atomic<uint64_t> max_{0};
};

/// One completed trace span, delivered to a TraceSink.
struct TraceEvent {
  std::string_view name;
  uint64_t begin_ns = 0;  ///< simulated time at span entry
  uint64_t end_ns = 0;    ///< simulated time at span exit
  uint32_t depth = 0;     ///< nesting depth (0 = outermost live span)
  uint64_t detail = 0;    ///< span-specific payload (e.g. seeks for device.*)
};

/// Receives every completed span while attached. Attaching a sink is the
/// expensive mode (per-span virtual call); with no sink, spans only stamp
/// their histogram.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnSpan(const TraceEvent& event) = 0;
};

/// Point-in-time copy of every counter and histogram, for printing and for
/// delta arithmetic in tests and benchmarks.
struct StatsSnapshot {
  struct HistogramEntry {
    std::string name;
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t min_ns = 0;
    uint64_t max_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
  };

  std::vector<std::pair<std::string, uint64_t>> counters;  ///< sorted by name
  std::vector<HistogramEntry> histograms;                  ///< sorted by name

  /// Value of counter `name`; 0 when absent (absent and never-incremented
  /// are indistinguishable, which is what delta arithmetic wants).
  uint64_t Value(std::string_view name) const;

  /// Sum of every counter whose name starts with `prefix`.
  uint64_t SumPrefix(std::string_view prefix) const;

  /// Human-readable table of all non-zero counters and histograms.
  std::string ToString() const;

  /// Machine-readable form: {"counters": {name: value, ...},
  /// "histograms": {name: {count, sum_ns, min_ns, max_ns, p50_ns, p99_ns}}}.
  /// Zero-valued counters and empty histograms are omitted, matching
  /// ToString, so diffs between snapshots stay small. Keys are emitted in
  /// sorted order, so two snapshots with equal contents serialize to
  /// byte-identical documents (committed BENCH_*.json files diff cleanly).
  std::string ToJson() const;

  /// Prometheus text exposition (version 0.0.4). Counter names are
  /// sanitized to [a-zA-Z0-9_] and prefixed `pglo_`; histograms become
  /// summaries with p50/p99 quantiles plus _count and _sum series. Zero
  /// counters and empty histograms are omitted, matching ToJson.
  std::string ToPrometheus() const;
};

/// Process-wide (per-Database) registry of named counters and histograms.
///
/// Names are dotted paths, `<layer>.<instance?>.<metric>`:
///   device.disk.seeks, bufpool.hits, smgr.worm.blocks_read,
///   lo.fchunk.bytes_read, inversion.path_resolutions.
/// Layers resolve counters once at bind/construction time; the returned
/// pointers stay valid for the registry's lifetime.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// The clock trace spans stamp against. Spans are no-ops until set.
  void SetClock(const SimClock* clock) { clock_ = clock; }
  const SimClock* clock() const { return clock_; }

  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// The attachable sink benches and profilers install per run. Distinct
  /// from the recorder slot below: a bench calling SetTraceSink must not
  /// silently detach the always-on flight recorder.
  void SetTraceSink(TraceSink* sink) { sink_ = sink; }
  TraceSink* trace_sink() const { return sink_; }

  /// The always-on recorder slot, installed for the life of the Database.
  /// Both sinks (when present) see every completed span.
  void SetRecorder(TraceSink* recorder) { recorder_ = recorder; }
  TraceSink* recorder() const { return recorder_; }

  StatsSnapshot Snapshot() const;

  /// Zeroes every counter and histogram (pointers stay valid).
  void Reset();

 private:
  friend class TraceSpan;

  // Span nesting depth is a per-thread property: each backend thread has
  // its own stack of live spans, so the counter is thread_local (one
  // backend observes exactly the sequence the per-registry counter gave).
  static uint32_t& SpanDepthTls() {
    static thread_local uint32_t depth = 0;
    return depth;
  }

  uint32_t EnterSpan() { return SpanDepthTls()++; }
  void ExitSpan(std::string_view name, uint64_t begin_ns, uint64_t end_ns,
                uint32_t depth, uint64_t detail) {
    SpanDepthTls() = depth;
    if (sink_ != nullptr || recorder_ != nullptr) {
      TraceEvent event{name, begin_ns, end_ns, depth, detail};
      if (sink_ != nullptr) sink_->OnSpan(event);
      if (recorder_ != nullptr) recorder_->OnSpan(event);
    }
  }

  const SimClock* clock_ = nullptr;
  TraceSink* sink_ = nullptr;
  TraceSink* recorder_ = nullptr;
  // Guards name → counter/histogram creation; resolved pointers are stable
  // and lock-free to use.
  mutable std::mutex names_mu_;
  // std::map: ordered iteration gives sorted snapshots; unique_ptr gives
  // stable Counter/Histogram addresses across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Scoped operation trace: stamps begin/end against the registry's SimClock,
/// records the simulated duration into `hist` (when non-null), and reports
/// the completed span to the attached TraceSink (when one is attached).
/// With a null registry — stats disabled — construction and destruction do
/// nothing at all.
class TraceSpan {
 public:
  TraceSpan(StatsRegistry* registry, Histogram* hist, std::string_view name)
      : registry_(registry) {
    if (registry_ == nullptr || registry_->clock() == nullptr) {
      registry_ = nullptr;
      return;
    }
    hist_ = hist;
    name_ = name;
    begin_ns_ = registry_->clock()->NowNanos();
    depth_ = registry_->EnterSpan();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (registry_ == nullptr) return;
    uint64_t end_ns = registry_->clock()->NowNanos();
    if (hist_ != nullptr) hist_->Record(end_ns - begin_ns_);
    registry_->ExitSpan(name_, begin_ns_, end_ns, depth_, detail_);
  }

  /// Attaches a span-specific payload (reported via TraceEvent::detail);
  /// device spans use it for the seek count of the charge. No-op when the
  /// span is disabled.
  void AddDetail(uint64_t n) {
    if (registry_ != nullptr) detail_ += n;
  }

  /// True when the span is live (stats enabled); guards any work done only
  /// to compute a detail payload.
  bool active() const { return registry_ != nullptr; }

 private:
  StatsRegistry* registry_;
  Histogram* hist_ = nullptr;
  std::string_view name_;
  uint64_t begin_ns_ = 0;
  uint64_t detail_ = 0;
  uint32_t depth_ = 0;
};

/// Increment helpers tolerating unbound (null) counters, so hot paths can
/// stay branch-light: `StatInc(stat_hits_);`
inline void StatInc(Counter* c) {
  if (c != nullptr) c->Inc();
}
inline void StatAdd(Counter* c, uint64_t n) {
  if (c != nullptr) c->Add(n);
}

}  // namespace pglo

#endif  // PGLO_OBS_STATS_H_

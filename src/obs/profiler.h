#ifndef PGLO_OBS_PROFILER_H_
#define PGLO_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span_tree.h"
#include "obs/stats.h"

namespace pglo {

/// Per-operation attribution profiler (the EXPLAIN ANALYZE of the simulator).
///
/// PR 1 gave every layer TraceSpans; this turns their completion stream back
/// into span trees and answers "where did this operation's simulated time
/// go?". Attach a Profiler as the registry's TraceSink, run a workload, then
/// render:
///
///   lo.fchunk.read           calls=2500 total=41.234 ms self=3.112 ms
///     -> bufpool             calls=5000 12.003 ms
///     -> device.disk         calls=38   26.119 ms (38 seeks)
///     -> smgr.disk           calls=38   0.412 ms (304 blocks)
///
/// A SpanTreeBuilder rebuilds the trees from the completion stream; each
/// closed operation tree is immediately folded into the per-op aggregate, so
/// memory stays bounded by tree width rather than workload length.
///
/// Attribution is by *self* time: each span's duration minus its direct
/// children's, credited to the span's layer (its name minus the final dotted
/// component — "bufpool.get" → "bufpool", "device.disk.read" →
/// "device.disk"). Self times of all spans in a tree sum exactly to the
/// root's duration, so per-layer columns always add up.
class Profiler : public TraceSink {
 public:
  /// Self-time and call count credited to one layer under one operation.
  struct LayerStat {
    uint64_t calls = 0;
    uint64_t self_ns = 0;
    /// Summed TraceEvent::detail: seeks for device.*, blocks moved for
    /// smgr.* and bufpool (write-back runs).
    uint64_t detail = 0;
  };

  /// Aggregate over every completed tree rooted at the same span name.
  struct OpProfile {
    uint64_t calls = 0;
    uint64_t total_ns = 0;  ///< sum of root span durations
    uint64_t self_ns = 0;   ///< root time not covered by any child span
    uint64_t detail = 0;    ///< detail recorded on the root spans themselves
    Histogram latency;      ///< distribution of root span durations
    // Sorted map: deterministic render order.
    std::map<std::string, LayerStat> layers;

    /// Sum of all per-layer self times; by construction ≤ total_ns.
    uint64_t ChildNs() const;
  };

  void OnSpan(const TraceEvent& event) override;

  /// Aggregates keyed by root span name ("lo.fchunk.read", ...).
  const std::map<std::string, OpProfile>& profiles() const { return profiles_; }

  /// Profile for one operation; null if that root span never completed.
  const OpProfile* Find(const std::string& op) const;

  /// EXPLAIN-ANALYZE-style report of every profiled operation.
  std::string ToString() const;

  /// Machine-readable form of the same report:
  /// {"ops": {name: {calls, total_ns, self_ns, p50_ns, p99_ns,
  ///                 layers: {layer: {calls, self_ns, detail}}}}}.
  std::string ToJson() const;

  /// Drops all aggregates and any incomplete pending spans.
  void Reset();

  /// Attribution key for a span name: everything before the final dotted
  /// component ("smgr.disk.read" → "smgr.disk"); the name itself when it has
  /// no dot.
  static std::string LayerOf(std::string_view span_name);

 private:
  void Aggregate(const SpanNode& root);
  void AttributeSubtree(const SpanNode& node, OpProfile* profile);

  SpanTreeBuilder trees_;
  std::map<std::string, OpProfile> profiles_;
};

}  // namespace pglo

#endif  // PGLO_OBS_PROFILER_H_

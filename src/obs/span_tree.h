#ifndef PGLO_OBS_SPAN_TREE_H_
#define PGLO_OBS_SPAN_TREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/stats.h"

namespace pglo {

/// One completed span and the completed spans nested inside it.
struct SpanNode {
  std::string name;  // copied: the event's string_view dies with OnSpan
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t detail = 0;
  uint32_t depth = 0;
  std::vector<SpanNode> children;  // begin-time order
};

/// Rebuilds span trees from a TraceSink's completion stream.
///
/// Spans are strictly nested and complete innermost first, so every
/// already-completed descendant of a span sits at the tail of the pending
/// stack when that span completes: deeper, and begun no earlier. The
/// builder adopts them there; a depth-0 completion closes a tree. Memory
/// stays bounded by tree width rather than workload length.
class SpanTreeBuilder {
 public:
  /// Feeds one completed span. Returns the finished tree when `event` is
  /// a root (depth 0), nullopt while the tree is still open.
  std::optional<SpanNode> Add(const TraceEvent& event);

  /// Drops incomplete pending spans.
  void Reset() { pending_.clear(); }

 private:
  std::vector<SpanNode> pending_;  // completed spans awaiting an ancestor
};

}  // namespace pglo

#endif  // PGLO_OBS_SPAN_TREE_H_

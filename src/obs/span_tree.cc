#include "obs/span_tree.h"

#include <algorithm>

namespace pglo {

std::optional<SpanNode> SpanTreeBuilder::Add(const TraceEvent& event) {
  SpanNode node;
  node.name.assign(event.name.data(), event.name.size());
  node.begin_ns = event.begin_ns;
  node.end_ns = event.end_ns;
  node.detail = event.detail;
  node.depth = event.depth;
  // Popping walks the tail backwards; reverse afterwards to restore
  // begin-time order.
  while (!pending_.empty() && pending_.back().depth > node.depth &&
         pending_.back().begin_ns >= node.begin_ns) {
    node.children.push_back(std::move(pending_.back()));
    pending_.pop_back();
  }
  std::reverse(node.children.begin(), node.children.end());

  if (node.depth != 0) {
    pending_.push_back(std::move(node));
    return std::nullopt;
  }
  // Nothing outer is live, and future spans all begin from now on — any
  // still-pending span can never be adopted. Drop orphans so an
  // instrumentation gap cannot leak memory across operations.
  pending_.clear();
  return node;
}

}  // namespace pglo

#include "obs/profiler.h"

#include <cstdio>

#include "common/json.h"

namespace pglo {

namespace {

uint64_t Duration(uint64_t begin_ns, uint64_t end_ns) {
  return end_ns >= begin_ns ? end_ns - begin_ns : 0;
}

void AppendMs(std::string* out, const char* label, uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.3f ms", label,
                static_cast<double>(ns) * 1e-6);
  *out += buf;
}

}  // namespace

std::string Profiler::LayerOf(std::string_view span_name) {
  size_t dot = span_name.rfind('.');
  if (dot == std::string_view::npos) return std::string(span_name);
  return std::string(span_name.substr(0, dot));
}

uint64_t Profiler::OpProfile::ChildNs() const {
  uint64_t sum = 0;
  for (const auto& [layer, stat] : layers) sum += stat.self_ns;
  return sum;
}

void Profiler::OnSpan(const TraceEvent& event) {
  std::optional<SpanNode> root = trees_.Add(event);
  if (root.has_value()) Aggregate(*root);
}

void Profiler::Aggregate(const SpanNode& root) {
  OpProfile& profile = profiles_[root.name];
  uint64_t dur = Duration(root.begin_ns, root.end_ns);
  uint64_t child_sum = 0;
  for (const SpanNode& child : root.children) {
    child_sum += Duration(child.begin_ns, child.end_ns);
  }
  profile.calls += 1;
  profile.total_ns += dur;
  profile.self_ns += dur >= child_sum ? dur - child_sum : 0;
  profile.detail += root.detail;
  profile.latency.Record(dur);
  for (const SpanNode& child : root.children) {
    AttributeSubtree(child, &profile);
  }
}

void Profiler::AttributeSubtree(const SpanNode& node, OpProfile* profile) {
  uint64_t dur = Duration(node.begin_ns, node.end_ns);
  uint64_t child_sum = 0;
  for (const SpanNode& child : node.children) {
    child_sum += Duration(child.begin_ns, child.end_ns);
  }
  LayerStat& layer = profile->layers[LayerOf(node.name)];
  layer.calls += 1;
  layer.self_ns += dur >= child_sum ? dur - child_sum : 0;
  layer.detail += node.detail;
  for (const SpanNode& child : node.children) {
    AttributeSubtree(child, profile);
  }
}

const Profiler::OpProfile* Profiler::Find(const std::string& op) const {
  auto it = profiles_.find(op);
  return it == profiles_.end() ? nullptr : &it->second;
}

std::string Profiler::ToString() const {
  std::string out;
  char buf[160];
  for (const auto& [name, p] : profiles_) {
    std::snprintf(buf, sizeof(buf), "%-32s calls=%-8llu ", name.c_str(),
                  static_cast<unsigned long long>(p.calls));
    out += buf;
    AppendMs(&out, "total", p.total_ns);
    out += ' ';
    AppendMs(&out, "self", p.self_ns);
    out += ' ';
    AppendMs(&out, "p50", p.latency.PercentileNs(50.0));
    out += ' ';
    AppendMs(&out, "p99", p.latency.PercentileNs(99.0));
    out += '\n';
    for (const auto& [layer, stat] : p.layers) {
      std::snprintf(buf, sizeof(buf), "  -> %-29s calls=%-8llu %.3f ms",
                    layer.c_str(), static_cast<unsigned long long>(stat.calls),
                    static_cast<double>(stat.self_ns) * 1e-6);
      out += buf;
      if (stat.detail != 0) {
        // Device spans count seeks; smgr and pool write-back spans count
        // the blocks their commands moved.
        const char* unit = layer.starts_with("device.") ? "seeks" : "blocks";
        std::snprintf(buf, sizeof(buf), " (%llu %s)",
                      static_cast<unsigned long long>(stat.detail), unit);
        out += buf;
      }
      out += '\n';
    }
  }
  return out;
}

std::string Profiler::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("ops");
  w.BeginObject();
  for (const auto& [name, p] : profiles_) {
    w.Key(name);
    w.BeginObject();
    w.Key("calls");
    w.Uint(p.calls);
    w.Key("total_ns");
    w.Uint(p.total_ns);
    w.Key("self_ns");
    w.Uint(p.self_ns);
    w.Key("p50_ns");
    w.Uint(p.latency.PercentileNs(50.0));
    w.Key("p99_ns");
    w.Uint(p.latency.PercentileNs(99.0));
    if (p.detail != 0) {
      w.Key("detail");
      w.Uint(p.detail);
    }
    w.Key("layers");
    w.BeginObject();
    for (const auto& [layer, stat] : p.layers) {
      w.Key(layer);
      w.BeginObject();
      w.Key("calls");
      w.Uint(stat.calls);
      w.Key("self_ns");
      w.Uint(stat.self_ns);
      if (stat.detail != 0) {
        w.Key("detail");
        w.Uint(stat.detail);
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

void Profiler::Reset() {
  trees_.Reset();
  profiles_.clear();
}

}  // namespace pglo

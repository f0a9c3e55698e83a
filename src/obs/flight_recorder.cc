#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace pglo {

namespace {

uint64_t Duration(uint64_t begin_ns, uint64_t end_ns) {
  return end_ns >= begin_ns ? end_ns - begin_ns : 0;
}

void SpanNodeToJson(const FlightRecorder::SpanNode& node, JsonWriter* w) {
  w->BeginObject();
  w->Key("name");
  w->String(node.name);
  w->Key("begin_ns");
  w->Uint(node.begin_ns);
  w->Key("end_ns");
  w->Uint(node.end_ns);
  if (node.detail != 0) {
    w->Key("detail");
    w->Uint(node.detail);
  }
  if (!node.children.empty()) {
    w->Key("children");
    w->BeginArray();
    for (const FlightRecorder::SpanNode& child : node.children) {
      SpanNodeToJson(child, w);
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

FlightRecorder::FlightRecorder(const FlightRecorderOptions& options,
                               StatsRegistry* registry)
    : options_(options),
      registry_(registry),
      events_(options.event_capacity) {
  if (options_.trace_capacity == 0) options_.trace_capacity = 1;
  if (options_.delta_capacity == 0) options_.delta_capacity = 1;
  if (options_.slow_op_capacity == 0) options_.slow_op_capacity = 1;
  trace_ring_.reserve(options_.trace_capacity);
  if (registry_ != nullptr) {
    events_.SetClock(registry_->clock());
    next_sample_ns_ = options_.snapshot_interval_ns;
  }
}

void FlightRecorder::OnSpan(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordSpanRing(event);
  if (options_.slow_op_budget_ns > 0) BuildSlowOpTree(event);
  // Sampling only on top-level completions: a delta then always describes
  // a whole number of operations, and the check is one compare per op.
  if (event.depth == 0) MaybeSample(event.end_ns);
}

void FlightRecorder::RecordSpanRing(const TraceEvent& event) {
  ++total_spans_;
  RecordedSpan* slot;
  if (trace_ring_.size() < options_.trace_capacity) {
    trace_ring_.emplace_back();
    slot = &trace_ring_.back();
  } else {
    slot = &trace_ring_[trace_head_];
    // Hot path (every span, always on): branch, not modulo.
    if (++trace_head_ == options_.trace_capacity) trace_head_ = 0;
  }
  slot->name.assign(event.name.data(), event.name.size());
  slot->begin_ns = event.begin_ns;
  slot->end_ns = event.end_ns;
  slot->detail = event.detail;
  slot->depth = event.depth;
}

void FlightRecorder::BuildSlowOpTree(const TraceEvent& event) {
  std::optional<SpanNode> root = slow_op_trees_.Add(event);
  if (!root.has_value()) return;
  uint64_t dur = Duration(event.begin_ns, event.end_ns);
  // Strictly over budget: an op landing exactly on the budget is within
  // it, and must not be captured (tested boundary).
  if (dur <= options_.slow_op_budget_ns) return;
  SlowOp op;
  op.seq = total_slow_ops_++;
  op.root = std::move(*root);
  if (slow_ops_.size() < options_.slow_op_capacity) {
    slow_ops_.push_back(std::move(op));
  } else {
    slow_ops_[slow_head_] = std::move(op);
    slow_head_ = (slow_head_ + 1) % options_.slow_op_capacity;
  }
  events_.Append(EventType::kSlowOp, std::string(event.name), dur,
                 options_.slow_op_budget_ns);
}

void FlightRecorder::MaybeSample(uint64_t now_ns) {
  if (registry_ == nullptr || options_.snapshot_interval_ns == 0) return;
  if (now_ns < next_sample_ns_) return;
  SampleDelta(now_ns);
  // Skip whole missed intervals instead of emitting a burst of empty
  // deltas after a long op.
  uint64_t interval = options_.snapshot_interval_ns;
  next_sample_ns_ += ((now_ns - next_sample_ns_) / interval + 1) * interval;
}

void FlightRecorder::ForceSample() {
  if (registry_ == nullptr) return;
  uint64_t now =
      registry_->clock() != nullptr ? registry_->clock()->NowNanos() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  SampleDelta(now);
}

void FlightRecorder::SampleDelta(uint64_t now_ns) {
  StatsSnapshot cur = registry_->Snapshot();
  SnapshotDelta delta;
  delta.seq = total_deltas_++;
  delta.sim_ns = now_ns;

  // Both snapshots iterate sorted by name; a merge walk yields sorted
  // non-zero deltas. Counters absent from prev are new (delta = value).
  size_t pi = 0;
  for (const auto& [name, value] : cur.counters) {
    while (pi < prev_snapshot_.counters.size() &&
           prev_snapshot_.counters[pi].first < name) {
      ++pi;
    }
    uint64_t prev = 0;
    if (pi < prev_snapshot_.counters.size() &&
        prev_snapshot_.counters[pi].first == name) {
      prev = prev_snapshot_.counters[pi].second;
    }
    if (value > prev) delta.counters.emplace_back(name, value - prev);
  }
  size_t hi = 0;
  for (const StatsSnapshot::HistogramEntry& h : cur.histograms) {
    while (hi < prev_snapshot_.histograms.size() &&
           prev_snapshot_.histograms[hi].name < h.name) {
      ++hi;
    }
    uint64_t prev_count = 0;
    uint64_t prev_sum = 0;
    if (hi < prev_snapshot_.histograms.size() &&
        prev_snapshot_.histograms[hi].name == h.name) {
      prev_count = prev_snapshot_.histograms[hi].count;
      prev_sum = prev_snapshot_.histograms[hi].sum_ns;
    }
    if (h.count > prev_count) {
      delta.counters.emplace_back(h.name + ".count", h.count - prev_count);
      if (h.sum_ns > prev_sum) {
        delta.counters.emplace_back(h.name + ".sum_ns", h.sum_ns - prev_sum);
      }
    }
  }
  std::sort(delta.counters.begin(), delta.counters.end());

  prev_snapshot_ = std::move(cur);
  if (deltas_.size() < options_.delta_capacity) {
    deltas_.push_back(std::move(delta));
  } else {
    deltas_[delta_head_] = std::move(delta);
    delta_head_ = (delta_head_ + 1) % options_.delta_capacity;
  }
}

std::vector<FlightRecorder::RecordedSpan> FlightRecorder::TraceTailLocked()
    const {
  std::vector<RecordedSpan> out;
  out.reserve(trace_ring_.size());
  for (size_t i = 0; i < trace_ring_.size(); ++i) {
    out.push_back(trace_ring_[(trace_head_ + i) % trace_ring_.size()]);
  }
  return out;
}

std::vector<FlightRecorder::RecordedSpan> FlightRecorder::TraceTail() const {
  std::lock_guard<std::mutex> lock(mu_);
  return TraceTailLocked();
}

std::vector<FlightRecorder::SnapshotDelta> FlightRecorder::DeltasLocked()
    const {
  std::vector<SnapshotDelta> out;
  out.reserve(deltas_.size());
  for (size_t i = 0; i < deltas_.size(); ++i) {
    out.push_back(deltas_[(delta_head_ + i) % deltas_.size()]);
  }
  return out;
}

std::vector<FlightRecorder::SnapshotDelta> FlightRecorder::Deltas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DeltasLocked();
}

std::vector<FlightRecorder::SlowOp> FlightRecorder::SlowOpsLocked() const {
  std::vector<SlowOp> out;
  out.reserve(slow_ops_.size());
  for (size_t i = 0; i < slow_ops_.size(); ++i) {
    out.push_back(slow_ops_[(slow_head_ + i) % slow_ops_.size()]);
  }
  return out;
}

std::vector<FlightRecorder::SlowOp> FlightRecorder::SlowOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SlowOpsLocked();
}

std::string FlightRecorder::ToJson(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("pglo-blackbox-v1");
  w.Key("reason");
  w.String(reason);
  uint64_t now =
      registry_ != nullptr && registry_->clock() != nullptr
          ? registry_->clock()->NowNanos()
          : 0;
  w.Key("dumped_at_ns");
  w.Uint(now);

  w.Key("events");
  events_.ToJson(&w);

  if (activity_ != nullptr) {
    // pg_stat_activity at the instant of the dump: one row per connected
    // backend, including the wait class it was blocked on (if any).
    w.Key("backends");
    w.BeginArray();
    for (const BackendActivityRow& row : activity_->Snapshot()) {
      w.BeginObject();
      w.Key("backend_id");
      w.Uint(row.backend_id);
      w.Key("in_txn");
      w.Bool(row.in_txn);
      w.Key("xid");
      w.Uint(row.xid);
      w.Key("begun");
      w.Uint(row.begun);
      w.Key("committed");
      w.Uint(row.committed);
      w.Key("aborted");
      w.Uint(row.aborted);
      w.Key("wait");
      w.String(WaitEventName(row.wait_event));
      w.Key("waiting_ns");
      w.Uint(row.waiting_ns);
      w.Key("waits");
      w.Uint(row.waits);
      w.Key("waited_ns");
      w.Uint(row.waited_ns);
      w.EndObject();
    }
    w.EndArray();
  }

  w.Key("snapshot_deltas");
  w.BeginObject();
  w.Key("total");
  w.Uint(total_deltas_);
  w.Key("interval_ns");
  w.Uint(options_.snapshot_interval_ns);
  w.Key("entries");
  w.BeginArray();
  for (const SnapshotDelta& d : DeltasLocked()) {
    w.BeginObject();
    w.Key("seq");
    w.Uint(d.seq);
    w.Key("sim_ns");
    w.Uint(d.sim_ns);
    w.Key("counters");
    w.BeginObject();
    for (const auto& [name, value] : d.counters) {
      w.Key(name);
      w.Uint(value);
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("slow_ops");
  w.BeginObject();
  w.Key("budget_ns");
  w.Uint(options_.slow_op_budget_ns);
  w.Key("total");
  w.Uint(total_slow_ops_);
  w.Key("entries");
  w.BeginArray();
  for (const SlowOp& op : SlowOpsLocked()) {
    w.BeginObject();
    w.Key("seq");
    w.Uint(op.seq);
    w.Key("duration_ns");
    w.Uint(Duration(op.root.begin_ns, op.root.end_ns));
    w.Key("tree");
    SpanNodeToJson(op.root, &w);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  w.Key("trace");
  w.BeginObject();
  w.Key("total");
  w.Uint(total_spans_);
  w.Key("entries");
  w.BeginArray();
  for (const RecordedSpan& span : TraceTailLocked()) {
    w.BeginObject();
    w.Key("name");
    w.String(span.name);
    w.Key("begin_ns");
    w.Uint(span.begin_ns);
    w.Key("end_ns");
    w.Uint(span.end_ns);
    w.Key("depth");
    w.Uint(span.depth);
    if (span.detail != 0) {
      w.Key("detail");
      w.Uint(span.detail);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (registry_ != nullptr) {
    // Raw document splice: StatsSnapshot::ToJson emits a complete object.
    w.Key("final_snapshot");
    w.Raw(registry_->Snapshot().ToJson());
  }
  w.EndObject();
  return std::move(w).Take();
}

Status FlightRecorder::DumpToFile(const std::string& path,
                                  const std::string& reason) {
  // Serialize whole dumps: two backends post-morteming at once must not
  // interleave truncate-and-write cycles on the same file. (Distinct from
  // mu_, which ToJson/ForceSample take internally.)
  std::lock_guard<std::mutex> dump_lock(dump_mu_);
  // The forced sample is the "last pre-crash delta": whatever changed
  // since the previous tick is in the dump even when simulated time never
  // advanced far enough to trigger periodic sampling.
  ForceSample();
  events_.Append(EventType::kCrashDump, reason, events_.total_appended());
  std::string doc = ToJson(reason);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0 || n != doc.size()) {
    return Status::IOError("error writing " + path);
  }
  return Status::OK();
}

}  // namespace pglo

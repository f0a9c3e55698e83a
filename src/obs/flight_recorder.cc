#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <optional>

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
  if (registry_ != nullptr) {
    events_.SetClock(registry_->clock());
    if (options_.snapshot_interval_ns > 0) {
      next_sample_ns_.store(options_.snapshot_interval_ns,
                            std::memory_order_relaxed);
    }
  }
}

void FlightRecorder::ShareSequence(size_t index) {
  size_t sole = kShards;
  if (sole_shard_.compare_exchange_strong(sole, index) || sole == index) {
    return;  // this shard numbers alone (so far)
  }
  // Switch numbering to the atomic add, under the sole shard's lock, so its
  // last plain store is ordered before anyone's first add.
  std::lock_guard<std::mutex> lock(shards_[sole].mu);
  shared_sequence_.store(true, std::memory_order_release);
}

void FlightRecorder::OnSpan(const TraceEvent& event) {
  const size_t index = ThreadSlot();
  if (!shared_sequence_.load(std::memory_order_acquire) &&
      sole_shard_.load(std::memory_order_relaxed) != index) {
    ShareSequence(index);
  }
  Shard& shard = shards_[index];
  std::unique_lock<std::mutex> lock(shard.mu);
  Slot* slot;
  if (shard.ring.size() < options_.trace_capacity) {
    slot = &shard.ring.emplace_back();
  } else {
    slot = &shard.ring[shard.head];
    // Hot path (every span, always on): branch, not modulo.
    if (++shard.head == options_.trace_capacity) shard.head = 0;
  }
  // Numbered under the shard lock, so each ring is in sequence order. While
  // one shard records alone, a plain store does (no locked add per span).
  // The acquire orders the sole shard's last store before this add.
  if (shared_sequence_.load(std::memory_order_acquire)) {
    slot->seq = total_spans_.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot->seq = total_spans_.load(std::memory_order_relaxed);
    total_spans_.store(slot->seq + 1, std::memory_order_relaxed);
  }
  RecordedSpan& span = slot->span;
  span.name.assign(event.name.data(), event.name.size());
  span.begin_ns = event.begin_ns;
  span.end_ns = event.end_ns;
  span.detail = event.detail;
  span.depth = event.depth;
  if (options_.slow_op_budget_ns > 0) {
    std::optional<SpanNode> root = shard.trees.Add(event);
    lock.unlock();  // mu_ is never taken under a shard lock
    if (root.has_value()) CaptureSlowOp(event, std::move(*root));
  } else {
    lock.unlock();
  }
  // Sampling only on top-level completions: a delta then always describes
  // a whole number of operations, and the check is one compare per op,
  // made before taking mu_.
  if (event.depth == 0 &&
      event.end_ns >= next_sample_ns_.load(std::memory_order_relaxed)) {
    MaybeSample(event.end_ns);
  }
}

void FlightRecorder::CaptureSlowOp(const TraceEvent& event, SpanNode root) {
  uint64_t dur = Duration(event.begin_ns, event.end_ns);
  // Strictly over budget: an op landing exactly on the budget is within
  // it, and must not be captured (tested boundary).
  if (dur <= options_.slow_op_budget_ns) return;
  std::lock_guard<std::mutex> lock(mu_);
  SlowOp op;
  op.seq = total_slow_ops_++;
  op.root = std::move(root);
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
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t next = next_sample_ns_.load(std::memory_order_relaxed);
  if (now_ns < next) return;  // another backend took this tick
  SampleDeltaLocked(now_ns);
  // Skip whole missed intervals instead of emitting a burst of empty
  // deltas after a long op.
  uint64_t interval = options_.snapshot_interval_ns;
  next_sample_ns_.store(next + ((now_ns - next) / interval + 1) * interval,
                        std::memory_order_relaxed);
}

void FlightRecorder::ForceSample() {
  if (registry_ == nullptr) return;
  uint64_t now =
      registry_->clock() != nullptr ? registry_->clock()->NowNanos() : 0;
  std::lock_guard<std::mutex> lock(mu_);
  SampleDeltaLocked(now);
}

void FlightRecorder::SampleDeltaLocked(uint64_t now_ns) {
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

std::vector<FlightRecorder::RecordedSpan> FlightRecorder::TraceTail() const {
  // Every shard at once, in index order, for one consistent cut.
  for (const Shard& shard : shards_) shard.mu.lock();
  std::vector<const Slot*> slots;
  for (const Shard& shard : shards_) {
    for (const Slot& slot : shard.ring) slots.push_back(&slot);
  }
  const size_t keep = std::min(slots.size(), options_.trace_capacity);
  auto by_seq = [](const Slot* a, const Slot* b) { return a->seq < b->seq; };
  std::nth_element(slots.begin(), slots.end() - keep, slots.end(), by_seq);
  std::sort(slots.end() - keep, slots.end(), by_seq);
  std::vector<RecordedSpan> out;
  out.reserve(keep);
  for (auto it = slots.end() - keep; it != slots.end(); ++it) {
    out.push_back((*it)->span);
  }
  for (const Shard& shard : shards_) shard.mu.unlock();
  return out;
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
  w.Uint(total_spans());
  w.Key("entries");
  w.BeginArray();
  for (const RecordedSpan& span : TraceTail()) {
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

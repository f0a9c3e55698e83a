#include "obs/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/json.h"

namespace pglo {

namespace {

// Index of the most significant set bit (0 for value 0/1).
size_t BucketFor(uint64_t ns) { return std::bit_width(ns | 1) - 1; }

}  // namespace

uint64_t Counter::value() const {
  uint64_t sum = 0;
  const size_t in_use = ThreadSlotsInUse();
  for (size_t i = 0; i < in_use; ++i) {
    sum += cells_[i].value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::Reset() {
  for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t ns) {
  Cell& cell = cells_[ThreadSlot()];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.sum.fetch_add(ns, std::memory_order_relaxed);
  cell.buckets[BucketFor(ns)].fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (ns < cur &&
         !min_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (ns > cur &&
         !max_.compare_exchange_weak(cur, ns, std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (Cell& cell : cells_) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.sum.store(0, std::memory_order_relaxed);
    for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
  }
  min_.store(~0ull, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Histogram::Totals Histogram::Fold() const {
  Totals t;
  // Folds run on every snapshot, and so on each of the flight recorder's
  // periodic deltas. They read only the slots some thread has taken, skip
  // a cell nothing recorded in since the last Reset, and stop at the
  // bucket of the largest sample.
  t.max_ns = max_.load(std::memory_order_relaxed);
  const size_t top = BucketFor(t.max_ns);
  const size_t in_use = ThreadSlotsInUse();
  for (size_t s = 0; s < in_use; ++s) {
    const Cell& cell = cells_[s];
    const uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    t.count += count;
    t.sum_ns += cell.sum.load(std::memory_order_relaxed);
    for (size_t i = 0; i <= top; ++i) {
      t.buckets[i] += cell.buckets[i].load(std::memory_order_relaxed);
    }
  }
  t.min_ns = t.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  return t;
}

uint64_t Histogram::Totals::PercentileNs(double p) const {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * count);
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen > rank) {
      // Upper bound of bucket i, clamped to the observed max.
      uint64_t bound = i + 1 >= 64 ? ~0ull : (1ull << (i + 1)) - 1;
      return std::min(bound, max_ns);
    }
  }
  return max_ns;
}

uint64_t StatsSnapshot::Value(std::string_view name) const {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != counters.end() && it->first == name) return it->second;
  return 0;
}

uint64_t StatsSnapshot::SumPrefix(std::string_view prefix) const {
  uint64_t sum = 0;
  for (const auto& [name, value] : counters) {
    if (name.size() >= prefix.size() &&
        std::string_view(name).substr(0, prefix.size()) == prefix) {
      sum += value;
    }
  }
  return sum;
}

std::string StatsSnapshot::ToString() const {
  std::string out;
  char buf[256];
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    std::snprintf(buf, sizeof(buf), "%-40s %16llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  for (const HistogramEntry& h : histograms) {
    if (h.count == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "%-40s n=%-10llu mean=%.3fms p50=%.3fms p99=%.3fms "
                  "max=%.3fms\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<double>(h.sum_ns) / h.count * 1e-6,
                  static_cast<double>(h.p50_ns) * 1e-6,
                  static_cast<double>(h.p99_ns) * 1e-6,
                  static_cast<double>(h.max_ns) * 1e-6);
    out += buf;
  }
  return out;
}

namespace {

// Indices into `v` ordered by the name `key` extracts. Snapshot() already
// yields sorted vectors (std::map iteration), but ToJson/ToPrometheus must
// stay byte-stable even for snapshots assembled by hand, so they sort an
// index rather than trusting the container.
template <typename V, typename KeyFn>
std::vector<size_t> SortedIndex(const V& v, KeyFn key) {
  std::vector<size_t> idx(v.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return key(v[a]) < key(v[b]); });
  return idx;
}

}  // namespace

std::string StatsSnapshot::ToJson() const {
  std::vector<size_t> cidx =
      SortedIndex(counters, [](const auto& c) -> const std::string& {
        return c.first;
      });
  std::vector<size_t> hidx = SortedIndex(
      histograms,
      [](const HistogramEntry& h) -> const std::string& { return h.name; });
  JsonWriter w;
  w.BeginObject();
  w.Key("counters");
  w.BeginObject();
  for (size_t i : cidx) {
    const auto& [name, value] = counters[i];
    if (value == 0) continue;
    w.Key(name);
    w.Uint(value);
  }
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (size_t i : hidx) {
    const HistogramEntry& h = histograms[i];
    if (h.count == 0) continue;
    w.Key(h.name);
    w.BeginObject();
    w.Key("count");
    w.Uint(h.count);
    w.Key("sum_ns");
    w.Uint(h.sum_ns);
    w.Key("min_ns");
    w.Uint(h.min_ns);
    w.Key("max_ns");
    w.Uint(h.max_ns);
    w.Key("p50_ns");
    w.Uint(h.p50_ns);
    w.Key("p99_ns");
    w.Uint(h.p99_ns);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted convention maps
// dots (and any other byte) to underscores under a pglo_ namespace prefix.
std::string PromName(const std::string& name) {
  std::string out = "pglo_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  *out += buf;
}

}  // namespace

std::string StatsSnapshot::ToPrometheus() const {
  // Sort by the SANITIZED name, not the raw one: '-' < '.' < '_' in ASCII,
  // so raw order diverges from emitted order once names mixing separators
  // exist (e.g. "worm-cache.*" vs "worm.hits" vs "wait.*"). The exposition
  // must be byte-stable AND sorted as the scraper sees it.
  std::vector<size_t> cidx = SortedIndex(
      counters, [](const auto& c) -> std::string { return PromName(c.first); });
  std::vector<size_t> hidx = SortedIndex(
      histograms,
      [](const HistogramEntry& h) -> std::string { return PromName(h.name); });
  std::string out;
  for (size_t i : cidx) {
    const auto& [name, value] = counters[i];
    if (value == 0) continue;
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " ";
    AppendUint(&out, value);
    out += '\n';
  }
  for (size_t i : hidx) {
    const HistogramEntry& h = histograms[i];
    if (h.count == 0) continue;
    std::string prom = PromName(h.name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} ";
    AppendUint(&out, h.p50_ns);
    out += '\n';
    out += prom + "{quantile=\"0.99\"} ";
    AppendUint(&out, h.p99_ns);
    out += '\n';
    out += prom + "_sum ";
    AppendUint(&out, h.sum_ns);
    out += '\n';
    out += prom + "_count ";
    AppendUint(&out, h.count);
    out += '\n';
  }
  return out;
}

Counter* StatsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Histogram* StatsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(names_mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

StatsSnapshot StatsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(names_mu_);
  StatsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    Histogram::Totals t = hist->Fold();
    StatsSnapshot::HistogramEntry e;
    e.name = name;
    e.count = t.count;
    e.sum_ns = t.sum_ns;
    e.min_ns = t.min_ns;
    e.max_ns = t.max_ns;
    e.p50_ns = t.PercentileNs(50.0);
    e.p99_ns = t.PercentileNs(99.0);
    snap.histograms.push_back(std::move(e));
  }
  return snap;
}

void StatsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(names_mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace pglo

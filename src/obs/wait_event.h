#ifndef PGLO_OBS_WAIT_EVENT_H_
#define PGLO_OBS_WAIT_EVENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/event_log.h"
#include "obs/stats.h"

namespace pglo {

/// Wait-state observability (DESIGN.md §14) — the pg_stat_activity shape.
///
/// Every point where a backend can block (pool latch, pin-wait cv, in-flight
/// page reads, relation latches, commit-log mutexes, fsync, group-commit
/// queue, retry backoff) reports into this taxonomy: per-class
/// acquire/contended counters and wall-time wait histograms in the
/// StatsRegistry, a per-backend WaitSlot exposing "what is backend N
/// waiting on right now", and a rare structured event for waits long
/// enough to matter in a post-mortem.
///
/// Two rules keep this subsystem honest:
///   1. Wall time, not simulated time. Blocking on a latch never advances
///      the SimClock (only device charges do), so wait durations are
///      measured with the steady clock. The one exception is
///      `io.retry.backoff`, whose "wait" IS a simulated-clock advance; its
///      histogram records the simulated backoff instead. Nothing here ever
///      advances the SimClock, so simulated times stay bit-identical with
///      instrumentation on or off.
///   2. The uncontended path stays near-free. A WaitLock on a free mutex is
///      one relaxed counter increment plus a try_lock; the steady clock is
///      read only after the try_lock has already failed.
enum class WaitEvent : uint8_t {
  kNone = 0,             ///< not waiting (WaitSlot idle value)
  kLatchBufPool,         ///< latch.bufpool — the pool mutex and its stripes
  kLatchRelHeap,         ///< latch.rel.heap — per-relation latch, heap AM
  kLatchRelBtree,        ///< latch.rel.btree — per-relation latch, B-tree AM
  kLatchRelOther,        ///< latch.rel.other — relation latch, unnamed caller
  kLatchRelRegistry,     ///< latch.rel.registry — a relation-latch shard mutex
  kBufPoolPinWait,       ///< bufpool.pin_wait — flush waiting for a pin drop
  kBufPoolDataSync,      ///< bufpool.data_sync — commit-time syncfs(2)
  kBufPoolIoWait,        ///< bufpool.io_wait — waiting out another's page read
  kClogMutex,            ///< clog.mutex — commit-log record/visibility mutex
  kClogFsync,            ///< clog.fsync — commit-log fdatasync (incl. piggyback)
  kTxnCommitSerialize,   ///< txn.commit_serialize — single-commit serializer
  kGroupCommitFollower,  ///< clog.group_commit.follower — waiting on a leader
  kGroupCommitGather,    ///< clog.group_commit.gather — leader's refill wait
  kIoRetryBackoff,       ///< io.retry.backoff — simulated transient-IO backoff
  kNumWaitEvents
};

/// Stable lowercase dotted class name ("latch.bufpool", ...); "none" for
/// kNone. Stats names derive from it: counters `wait.<class>.acquires` /
/// `wait.<class>.contended`, histogram `wait.<class>_ns`.
const char* WaitEventName(WaitEvent e);

/// Monotonic wall-clock nanoseconds (steady clock). Wait durations are real
/// time by design — see the header comment.
uint64_t WaitWallNowNs();

/// Published "what am I waiting on right now" state for one backend.
///
/// The current wait is packed into ONE atomic word — event class in the top
/// 8 bits, wall start tick in the low 56 (2^56 ns ≈ 26 months of uptime) —
/// so a monitoring thread's single load can never observe a torn pair
/// (event from one wait, start tick from another). Begin/End are
/// release-stores; Read is an acquire-load.
class WaitSlot {
 public:
  static constexpr uint64_t kStartMask = (uint64_t{1} << 56) - 1;

  struct Reading {
    WaitEvent event = WaitEvent::kNone;
    uint64_t start_ns = 0;  ///< wall tick the wait began; 0 when idle
  };

  void BeginWait(WaitEvent e, uint64_t wall_start_ns) {
    state_.store((static_cast<uint64_t>(e) << 56) | (wall_start_ns & kStartMask),
                 std::memory_order_release);
  }
  void EndWait(uint64_t waited_ns) {
    state_.store(0, std::memory_order_release);
    waits_.fetch_add(1, std::memory_order_relaxed);
    waited_ns_.fetch_add(waited_ns, std::memory_order_relaxed);
  }

  Reading Read() const {
    uint64_t s = state_.load(std::memory_order_acquire);
    return {static_cast<WaitEvent>(s >> 56), s & kStartMask};
  }

  /// Cumulative contended-wait episodes / wall ns over the slot's lifetime.
  uint64_t waits() const { return waits_.load(std::memory_order_relaxed); }
  uint64_t waited_ns() const {
    return waited_ns_.load(std::memory_order_relaxed);
  }

  void set_backend_id(uint32_t id) {
    backend_id_.store(id, std::memory_order_relaxed);
  }
  uint32_t backend_id() const {
    return backend_id_.load(std::memory_order_relaxed);
  }

  void Reset() {
    state_.store(0, std::memory_order_relaxed);
    waits_.store(0, std::memory_order_relaxed);
    waited_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> state_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<uint64_t> waited_ns_{0};
  std::atomic<uint32_t> backend_id_{0};
};

/// The calling thread's published WaitSlot. Session installs its backend's
/// slot here (at construction and on every Begin, covering sessions handed
/// across threads); deep engine code — pool, commit log — publishes waits
/// through it without ever seeing a Session. Threads without a slot still
/// feed the aggregate counters; they just have no activity row.
void SetCurrentWaitSlot(WaitSlot* slot);
WaitSlot* CurrentWaitSlot();

/// Pre-resolved instrumentation for one wait class. Components hold a
/// `const WaitPoint*`; null (unbound — stats off, or a bare component in a
/// unit test) means the raw uninstrumented path.
struct WaitPoint {
  WaitEvent event = WaitEvent::kNone;
  Counter* acquires = nullptr;   ///< wait.<class>.acquires
  Counter* contended = nullptr;  ///< wait.<class>.contended
  Histogram* wait_ns = nullptr;  ///< wait.<class>_ns (wall; sim for backoff)
  EventLog* events = nullptr;    ///< sink for rare kWaitContended events
  uint64_t event_threshold_ns = 0;  ///< min wall wait to emit an event
};

/// One WaitPoint per taxonomy class, resolved against a StatsRegistry once
/// at Database open. Owned by Database; components receive `point(...)`
/// pointers, which stay valid for the table's lifetime.
class WaitStatsTable {
 public:
  /// Resolves every class's counters/histogram. `events` (nullable) receives
  /// kWaitContended for waits at/above `event_threshold_ns` wall ns.
  void Bind(StatsRegistry* stats, EventLog* events,
            uint64_t event_threshold_ns);

  /// Null for kNone or before Bind, so callers can pass the result straight
  /// into components.
  const WaitPoint* point(WaitEvent e) const {
    if (!bound_ || e == WaitEvent::kNone || e >= WaitEvent::kNumWaitEvents) {
      return nullptr;
    }
    return &points_[static_cast<size_t>(e)];
  }
  bool bound() const { return bound_; }

 private:
  WaitPoint points_[static_cast<size_t>(WaitEvent::kNumWaitEvents)];
  bool bound_ = false;
};

/// RAII around an actual blocking episode: counts it contended, publishes
/// the thread's WaitSlot, and on exit records the wall wait into the class
/// histogram (plus a structured event when it crossed the threshold).
/// Construct only AFTER deciding the path blocks (failed try_lock, cv wait
/// about to happen) — the constructor reads the wall clock.
class WaitGuard {
 public:
  /// `count_acquire` also bumps `.acquires` — the cv-style points, where
  /// there is no separate uncontended acquisition to count.
  explicit WaitGuard(const WaitPoint* wp, bool count_acquire = true) {
    if (wp == nullptr || wp->contended == nullptr) return;
    wp_ = wp;
    if (count_acquire) StatInc(wp->acquires);
    wp->contended->Inc();
    begin_ns_ = WaitWallNowNs();
    slot_ = CurrentWaitSlot();
    if (slot_ != nullptr) slot_->BeginWait(wp->event, begin_ns_);
  }
  ~WaitGuard() {
    if (wp_ == nullptr) return;
    uint64_t waited = WaitWallNowNs() - begin_ns_;
    if (wp_->wait_ns != nullptr) wp_->wait_ns->Record(waited);
    if (slot_ != nullptr) slot_->EndWait(waited);
    if (wp_->events != nullptr && waited >= wp_->event_threshold_ns) {
      wp_->events->Append(EventType::kWaitContended, WaitEventName(wp_->event),
                          waited,
                          slot_ != nullptr ? slot_->backend_id() : 0);
    }
  }
  WaitGuard(const WaitGuard&) = delete;
  WaitGuard& operator=(const WaitGuard&) = delete;

 private:
  const WaitPoint* wp_ = nullptr;
  WaitSlot* slot_ = nullptr;
  uint64_t begin_ns_ = 0;
};

/// Instrumented mutex acquisition. Uncontended: one relaxed increment and a
/// try_lock. Contended: full WaitGuard around the blocking lock(). Unbound:
/// a plain lock().
template <typename Mutex>
inline void WaitLock(Mutex& mu, const WaitPoint* wp) {
  if (wp == nullptr || wp->acquires == nullptr) {
    mu.lock();
    return;
  }
  wp->acquires->Inc();
  if (mu.try_lock()) return;
  WaitGuard guard(wp, /*count_acquire=*/false);
  mu.lock();
}

/// lock_guard with wait instrumentation on the way in.
class WaitLockGuard {
 public:
  WaitLockGuard(std::mutex& mu, const WaitPoint* wp) : mu_(mu) {
    WaitLock(mu_, wp);
  }
  ~WaitLockGuard() { mu_.unlock(); }
  WaitLockGuard(const WaitLockGuard&) = delete;
  WaitLockGuard& operator=(const WaitLockGuard&) = delete;

 private:
  std::mutex& mu_;
};

/// Records a simulated-time wait (the retry backoff path, where "waiting"
/// is a SimClock advance, not a blocked thread). No WaitSlot publication —
/// there is no blocked interval for a monitor to observe.
inline void RecordSimWait(const WaitPoint* wp, uint64_t sim_ns) {
  if (wp == nullptr || wp->contended == nullptr) return;
  StatInc(wp->acquires);
  wp->contended->Inc();
  if (wp->wait_ns != nullptr) wp->wait_ns->Record(sim_ns);
}

/// One backend's row in the activity view (the pg_stat_activity shape).
struct BackendActivityRow {
  uint32_t backend_id = 0;
  bool in_txn = false;
  uint64_t xid = 0;  ///< current transaction's XID; 0 when idle
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  WaitEvent wait_event = WaitEvent::kNone;  ///< current wait; kNone = running
  uint64_t waiting_ns = 0;  ///< wall ns in the current wait so far
  uint64_t waits = 0;       ///< cumulative contended waits
  uint64_t waited_ns = 0;   ///< cumulative wall ns spent waiting
};

/// One live backend's published state. All fields are atomics (or the
/// atomic WaitSlot), so the monitor reads without stopping the backend;
/// backend_id 0 marks a free slot.
struct BackendSlot {
  std::atomic<uint32_t> backend_id{0};
  std::atomic<uint8_t> in_txn{0};
  std::atomic<uint64_t> xid{0};
  std::atomic<uint64_t> begun{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  WaitSlot wait;
};

/// The per-Database table of live backends. Sessions acquire a slot at
/// construction and release it at destruction; slots are pooled (a freed
/// slot is reused) so the table stops growing at the high-water session
/// count. Snapshot() is the monitor's read: lock-free against backends,
/// serialized only against slot-table growth.
class BackendActivity {
 public:
  BackendActivity() = default;
  BackendActivity(const BackendActivity&) = delete;
  BackendActivity& operator=(const BackendActivity&) = delete;

  BackendSlot* Acquire(uint32_t backend_id);
  void Release(BackendSlot* slot);

  /// Rows for every live backend, sorted by backend id. `waiting_ns` is
  /// computed against the wall clock at snapshot time.
  std::vector<BackendActivityRow> Snapshot() const;

  size_t live_count() const;

 private:
  mutable std::mutex mu_;  ///< guards slots_ growth and acquire/release
  std::vector<std::unique_ptr<BackendSlot>> slots_;
};

}  // namespace pglo

#endif  // PGLO_OBS_WAIT_EVENT_H_

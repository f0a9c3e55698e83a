#include "obs/wait_event.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace pglo {

const char* WaitEventName(WaitEvent e) {
  switch (e) {
    case WaitEvent::kNone:
      return "none";
    case WaitEvent::kLatchBufPool:
      return "latch.bufpool";
    case WaitEvent::kLatchRelHeap:
      return "latch.rel.heap";
    case WaitEvent::kLatchRelBtree:
      return "latch.rel.btree";
    case WaitEvent::kLatchRelOther:
      return "latch.rel.other";
    case WaitEvent::kLatchRelRegistry:
      return "latch.rel.registry";
    case WaitEvent::kBufPoolPinWait:
      return "bufpool.pin_wait";
    case WaitEvent::kBufPoolDataSync:
      return "bufpool.data_sync";
    case WaitEvent::kBufPoolIoWait:
      return "bufpool.io_wait";
    case WaitEvent::kClogMutex:
      return "clog.mutex";
    case WaitEvent::kClogFsync:
      return "clog.fsync";
    case WaitEvent::kTxnCommitSerialize:
      return "txn.commit_serialize";
    case WaitEvent::kGroupCommitFollower:
      return "clog.group_commit.follower";
    case WaitEvent::kGroupCommitGather:
      return "clog.group_commit.gather";
    case WaitEvent::kIoRetryBackoff:
      return "io.retry.backoff";
    case WaitEvent::kNumWaitEvents:
      break;
  }
  return "invalid";
}

uint64_t WaitWallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
thread_local WaitSlot* g_current_wait_slot = nullptr;
}  // namespace

void SetCurrentWaitSlot(WaitSlot* slot) { g_current_wait_slot = slot; }

WaitSlot* CurrentWaitSlot() { return g_current_wait_slot; }

void WaitStatsTable::Bind(StatsRegistry* stats, EventLog* events,
                          uint64_t event_threshold_ns) {
  if (stats == nullptr) return;
  for (size_t i = 1; i < static_cast<size_t>(WaitEvent::kNumWaitEvents); ++i) {
    WaitEvent e = static_cast<WaitEvent>(i);
    std::string base = std::string("wait.") + WaitEventName(e);
    points_[i].event = e;
    points_[i].acquires = stats->counter(base + ".acquires");
    points_[i].contended = stats->counter(base + ".contended");
    points_[i].wait_ns = stats->histogram(base + "_ns");
    points_[i].events = events;
    points_[i].event_threshold_ns = event_threshold_ns;
  }
  bound_ = true;
}

BackendSlot* BackendActivity::Acquire(uint32_t backend_id) {
  std::lock_guard<std::mutex> lock(mu_);
  BackendSlot* slot = nullptr;
  for (auto& s : slots_) {
    if (s->backend_id.load(std::memory_order_relaxed) == 0) {
      slot = s.get();
      break;
    }
  }
  if (slot == nullptr) {
    slots_.push_back(std::make_unique<BackendSlot>());
    slot = slots_.back().get();
  }
  slot->in_txn.store(0, std::memory_order_relaxed);
  slot->xid.store(0, std::memory_order_relaxed);
  slot->begun.store(0, std::memory_order_relaxed);
  slot->committed.store(0, std::memory_order_relaxed);
  slot->aborted.store(0, std::memory_order_relaxed);
  slot->wait.Reset();
  slot->wait.set_backend_id(backend_id);
  // Publish last: a monitor seeing the id sees an initialized slot.
  slot->backend_id.store(backend_id, std::memory_order_release);
  return slot;
}

void BackendActivity::Release(BackendSlot* slot) {
  if (slot == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  slot->backend_id.store(0, std::memory_order_release);
}

std::vector<BackendActivityRow> BackendActivity::Snapshot() const {
  std::vector<BackendActivityRow> rows;
  uint64_t now = WaitWallNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(slots_.size());
    for (const auto& s : slots_) {
      uint32_t id = s->backend_id.load(std::memory_order_acquire);
      if (id == 0) continue;
      BackendActivityRow row;
      row.backend_id = id;
      row.in_txn = s->in_txn.load(std::memory_order_relaxed) != 0;
      row.xid = s->xid.load(std::memory_order_relaxed);
      row.begun = s->begun.load(std::memory_order_relaxed);
      row.committed = s->committed.load(std::memory_order_relaxed);
      row.aborted = s->aborted.load(std::memory_order_relaxed);
      WaitSlot::Reading r = s->wait.Read();
      row.wait_event = r.event;
      if (r.event != WaitEvent::kNone && now > r.start_ns) {
        row.waiting_ns = now - r.start_ns;
      }
      row.waits = s->wait.waits();
      row.waited_ns = s->wait.waited_ns();
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const BackendActivityRow& a, const BackendActivityRow& b) {
              return a.backend_id < b.backend_id;
            });
  return rows;
}

size_t BackendActivity::live_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& s : slots_) {
    if (s->backend_id.load(std::memory_order_relaxed) != 0) ++n;
  }
  return n;
}

}  // namespace pglo

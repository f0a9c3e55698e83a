#ifndef PGLO_STORAGE_REL_LATCH_H_
#define PGLO_STORAGE_REL_LATCH_H_

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/wait_event.h"
#include "storage/page.h"

namespace pglo {

/// Per-relation exclusive latches for multi-backend access (DESIGN.md §13).
///
/// The access methods (heap, B-tree) were written single-stream: an
/// operation holds several page pins at once and assumes nobody else
/// mutates the relation under it. Rather than rewrite them with page-level
/// latch crabbing, each public access-method operation takes the relation's
/// exclusive latch for its (short) duration — coarse, but exactly the
/// granularity the 1993 backend got from its lock table, and invisible to
/// single-stream runs (an uncontended acquisition takes one shard mutex
/// and never advances the simulated clock).
///
/// Latches are re-entrant for their owning thread because operations
/// compose (Update = Delete + Insert; InsertIfAbsent wraps Insert; LO
/// writes walk index and heap through nested calls). They are NOT ordered:
/// a thread may hold several relation latches (heap + its index), always
/// acquired in the same access-method-imposed order (index after heap,
/// catalog outermost), so cycles cannot form between two LO operations on
/// the same object kind. See DESIGN.md §13 for the ordering argument.
///
/// Nothing here is process-wide. The latches live in kShards shards keyed
/// by RelFileIdHash, each with its own mutex; each latch has its own
/// condition variable and waiter count, and a release wakes one of that
/// latch's waiters, only when one waits (PostgreSQL's LWLocks keep one
/// wait list per lock the same way). A thread keeps the latches it holds
/// in a thread-local list, so a re-entrant Lock or Unlock touches no
/// shared state at all.
class RelLatchRegistry {
 public:
  RelLatchRegistry() = default;
  RelLatchRegistry(const RelLatchRegistry&) = delete;
  RelLatchRegistry& operator=(const RelLatchRegistry&) = delete;

  /// Wait instrumentation for contended latch acquisitions, keyed by the
  /// caller-supplied access-method kind (latch.rel.heap / .btree / .other);
  /// the shard mutexes report under latch.rel.registry. Null or unbound =
  /// uninstrumented. Configuration-time only.
  void BindWaits(const WaitStatsTable* waits) {
    waits_ = waits;
    wp_registry_ = waits != nullptr
                       ? waits->point(WaitEvent::kLatchRelRegistry)
                       : nullptr;
  }

  void Lock(RelFileId file, WaitEvent kind = WaitEvent::kLatchRelOther) {
    std::vector<Held>& held = HeldByThread();
    auto it = FindHeld(held, file);
    if (it != held.end()) {
      ++it->depth;  // re-entrant: not a new acquisition for the stats
      return;
    }
    Shard& shard = ShardFor(file);
    WaitLock(shard.mu, wp_registry_);
    std::unique_lock<std::mutex> lk(shard.mu, std::adopt_lock);
    std::unique_ptr<Latch>& slot = shard.latches[file];
    if (slot == nullptr) slot = std::make_unique<Latch>();
    Latch& latch = *slot;
    const WaitPoint* wp = waits_ != nullptr ? waits_->point(kind) : nullptr;
    if (wp != nullptr) StatInc(wp->acquires);
    if (latch.held) {
      WaitGuard guard(wp, /*count_acquire=*/false);
      ++latch.waiters;
      latch.cv.wait(lk, [&] { return !latch.held; });
      --latch.waiters;
    }
    latch.held = true;
    lk.unlock();
    held.push_back(Held{this, file, &latch, 1});
  }

  /// Releases one level of the calling thread's hold on `file`; a latch
  /// this thread does not hold is left alone.
  void Unlock(RelFileId file) {
    std::vector<Held>& held = HeldByThread();
    auto it = FindHeld(held, file);
    if (it == held.end()) return;
    if (--it->depth > 0) return;
    Latch& latch = *it->latch;
    held.erase(it);
    bool wake;
    {
      WaitLockGuard lk(ShardFor(file).mu, wp_registry_);
      latch.held = false;
      wake = latch.waiters > 0;
    }
    // Latches are never freed before the registry, so the notify may
    // follow the unlock: the woken waiter does not then block on the
    // shard mutex, and a barging thread only sends it back to wait.
    if (wake) latch.cv.notify_one();
  }

 private:
  /// Shards: a constant, like the buffer pool's stripes.
  static constexpr size_t kShards = 16;

  struct Latch {
    std::condition_variable cv;
    uint32_t waiters = 0;
    bool held = false;
  };

  /// A latch's shard mutex guards its `held` and `waiters`; the map only
  /// grows, so a Latch's address is stable for the registry's lifetime.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<RelFileId, std::unique_ptr<Latch>, RelFileIdHash>
        latches;
  };

  /// One latch the calling thread holds, and how many times over.
  struct Held {
    const RelLatchRegistry* registry;
    RelFileId file;
    Latch* latch;
    uint32_t depth;
  };

  static std::vector<Held>& HeldByThread() {
    static thread_local std::vector<Held> held;
    return held;
  }

  std::vector<Held>::iterator FindHeld(std::vector<Held>& held,
                                       RelFileId file) const {
    return std::find_if(held.begin(), held.end(), [&](const Held& h) {
      return h.registry == this && h.file == file;
    });
  }

  Shard& ShardFor(RelFileId file) {
    return shards_[RelFileIdHash()(file) % kShards];
  }

  std::array<Shard, kShards> shards_;
  const WaitStatsTable* waits_ = nullptr;
  const WaitPoint* wp_registry_ = nullptr;
};

/// RAII scope for one relation latch. Null registry = no-op, so access
/// methods built on a bare BufferPool in unit tests run unchanged.
class RelLatchGuard {
 public:
  RelLatchGuard(RelLatchRegistry* registry, RelFileId file,
                WaitEvent kind = WaitEvent::kLatchRelOther)
      : registry_(registry), file_(file) {
    if (registry_ != nullptr) registry_->Lock(file_, kind);
  }
  ~RelLatchGuard() {
    if (registry_ != nullptr) registry_->Unlock(file_);
  }
  RelLatchGuard(const RelLatchGuard&) = delete;
  RelLatchGuard& operator=(const RelLatchGuard&) = delete;

 private:
  RelLatchRegistry* registry_;
  RelFileId file_;
};

}  // namespace pglo

#endif  // PGLO_STORAGE_REL_LATCH_H_

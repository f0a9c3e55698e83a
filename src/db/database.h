#ifndef PGLO_DB_DATABASE_H_
#define PGLO_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "db/context.h"
#include "db/session.h"
#include "fault/fault_injector.h"
#include "lo/lo_manager.h"
#include "obs/flight_recorder.h"
#include "obs/wait_event.h"
#include "smgr/disk_smgr.h"
#include "smgr/mm_smgr.h"
#include "smgr/worm_smgr.h"

namespace pglo {

/// Construction parameters for a Database.
struct DatabaseOptions {
  /// Host directory holding all persistent state.
  std::string dir;

  size_t buffer_pool_frames = 256;

  /// Sequential read-ahead window, in pages, for the buffer pool and the
  /// simulated UNIX file system's own pool. A detected sequential scan
  /// faults up to this many blocks with one vectored device command, and
  /// adjacent dirty pages are written back as coalesced runs. 0 disables
  /// all vectored I/O, restoring the historical per-block command
  /// sequence (and its exact simulated times).
  uint32_t readahead_pages = 8;

  /// Device timing models, each with its default parameters; set
  /// `charge_devices` false to run without simulated-time accounting (unit
  /// tests).
  bool charge_devices = true;
  double cpu_mips = 10.0;
  /// Simulated instructions charged per page/block cache access (buffer
  /// pool and OS buffer cache alike). 0 = no per-access CPU accounting.
  uint64_t page_access_instructions = 0;

  /// Magnetic-disk cache in front of the WORM jukebox, in 8 KB blocks
  /// (§9.3). 1250 blocks = 10 MB.
  size_t worm_cache_blocks = 1250;

  /// The simulated UNIX file system hosting u-file / p-file objects.
  UnixFileSystem::Params ufs_params;

  /// When true, every layer reports its physical operations into a
  /// StatsRegistry readable via Database::Stats(). Stats never advance the
  /// simulated clock, so reported times are identical either way.
  bool enable_stats = true;

  /// When true (and stats are enabled), a FlightRecorder is installed in
  /// the registry's recorder slot for the life of the instance: rolling
  /// trace tail, periodic snapshot deltas, slow-op capture, and the typed
  /// event log. On SimulateCrashAndReopen or a failed Open the recorder
  /// dumps to Database::kBlackboxName in `dir`. Like stats, never advances
  /// the clock.
  bool enable_flight_recorder = true;
  FlightRecorderOptions recorder_options;

  /// When true (and stats are enabled), every blocking point — pool latch,
  /// pin waits, relation latches, commit-log mutexes and fdatasync, the
  /// group-commit queue, retry backoff — reports per-class acquire and
  /// contention counters plus wall-time wait histograms (`wait.*`), and
  /// each Session publishes a live WaitSlot into the per-backend activity
  /// view (DESIGN.md §14). Wall time only: wait instrumentation never
  /// advances the simulated clock.
  bool enable_wait_instrumentation = true;

  /// Contended waits at/above this wall duration also append a
  /// kWaitContended event to the flight recorder's ring (when it is on),
  /// so black-box dumps name the stalls that mattered. 0 records every
  /// contended wait — diagnostic mode, noisy under real contention.
  uint64_t wait_event_threshold_ns = 1000000;

  /// When set, every stable-storage write in the instance (smgr blocks,
  /// UFS backing store, WORM burns, commit-log and relocation-map appends)
  /// is routed through this injector, enabling crash-at-Nth-write, torn
  /// writes, bit corruption, and transient errors. Null (the default)
  /// leaves every layer on its unwrapped fast path. Borrowed; must outlive
  /// the Database.
  FaultInjector* fault_injector = nullptr;

  /// When false, the commit log skips its fdatasync — a deliberately
  /// broken configuration whose lost commits the crash harness must catch
  /// (only meaningful with a fault injector installed).
  bool synchronous_commit = true;

  /// Group commit (DESIGN.md §13): concurrent committers batch behind one
  /// leader — one buffer-pool flush and one commit-log append + fdatasync
  /// commit the whole group. Off by default; single-session runs with it
  /// off reproduce the historical commit sequence bit-identically.
  bool group_commit = false;
};

/// One POSTGRES-style database instance: storage managers, buffer pool,
/// transaction system, large objects, and the simulated UNIX file system —
/// everything §6–§9 measures, behind one handle.
///
/// Multi-backend: the engine below is internally synchronized, so K
/// threads may work concurrently — one Session each (Connect()). Open,
/// Close, SimulateCrashAndReopen, and stats resets are control-plane
/// operations: callers quiesce the backends first, exactly as the 1993
/// postmaster did.
class Database {
 public:
  Database();
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (creating on first use) the database under options.dir.
  Status Open(const DatabaseOptions& options);

  /// Flushes everything and shuts down cleanly.
  Status Close();

  /// Drops every volatile structure (buffer pool, OS cache, WORM cache)
  /// without flushing, then reopens from stable storage — a power failure.
  /// Connected Sessions survive; one caught mid-transaction must
  /// Session::Abandon() it first, since its Transaction dies with the crash.
  Status SimulateCrashAndReopen();

  // --- backends ---------------------------------------------------------
  /// Opens a backend connection. Each concurrent thread gets its own
  /// Session; the session handles transaction lifecycle and per-backend
  /// accounting. Destroy the session (or let it go out of scope) to
  /// disconnect; an in-progress transaction is then aborted.
  std::unique_ptr<Session> Connect() {
    return std::unique_ptr<Session>(
        new Session(this, next_backend_id_.fetch_add(1) + 1));
  }

  /// The latest commit tick — the "now" that time-travel queries address.
  CommitTime Now() const { return txns_->Now(); }

  // --- subsystems -----------------------------------------------------
  LoManager& large_objects() { return *lo_; }
  UnixFileSystem& ufs() { return *ufs_; }
  SimClock& clock() { return *clock_; }
  CpuCostModel& cpu() { return *cpu_; }
  BufferPool& pool() { return *pool_; }
  SmgrRegistry& smgrs() { return *smgrs_; }
  CodecRegistry& codecs() { return *codecs_; }
  OidAllocator& oids() { return *oids_; }
  TxnManager& txns() { return *txns_; }
  WormSmgr* worm() { return worm_; }

  /// Borrowed handles for subsystems built on top (Inversion, query).
  const DbContext& context() const { return ctx_; }

  // --- observability ---------------------------------------------------
  /// Point-in-time copy of every counter/histogram; empty snapshot when
  /// stats are disabled.
  StatsSnapshot Stats() const {
    return stats_ != nullptr ? stats_->Snapshot() : StatsSnapshot{};
  }
  /// Null when options.enable_stats is false.
  StatsRegistry* stats_registry() { return stats_.get(); }
  /// The wait-event table; null when wait instrumentation (or stats) is
  /// off. Components are already bound — this accessor serves tests and
  /// tools that want direct WaitPoint access.
  const WaitStatsTable* waits() const { return waits_.get(); }
  /// The live per-backend activity table (always present; rows exist only
  /// while Sessions are connected).
  BackendActivity& activity() { return activity_; }
  /// The always-on flight recorder; null when disabled (or stats off).
  FlightRecorder* recorder() { return recorder_.get(); }
  /// Appends a structured event to the recorder's log; no-op when the
  /// recorder is off. For layers above the Database (Inversion, query,
  /// benches) that want their milestones in the black box.
  void LogEvent(EventType type, std::string detail, uint64_t a = 0,
                uint64_t b = 0) {
    if (recorder_ != nullptr) {
      recorder_->events().Append(type, std::move(detail), a, b);
    }
  }
  /// Serializes the recorder to the instance's black-box file and returns
  /// its path. Fails when the recorder is off.
  Result<std::string> DumpBlackbox(const std::string& reason);
  /// Name of the black-box dump file in the database directory.
  static constexpr const char* kBlackboxName = "pglo_blackbox.json";
  /// Full path of the black-box dump file.
  std::string blackbox_file() const {
    std::string dir = options_.dir;
    // Normalize so a "dir/" option never produces "//".
    while (!dir.empty() && dir.back() == '/') dir.pop_back();
    return dir + "/" + kBlackboxName;
  }
  /// Zeroes every counter and histogram (no-op when disabled).
  void ResetStats() {
    if (stats_ != nullptr) stats_->Reset();
  }

  bool is_open() const { return open_; }
  const DatabaseOptions& options() const { return options_; }
  /// True when the current open is a crash recovery (SimulateCrashAndReopen
  /// rather than a clean Open).
  bool recovered_from_crash() const { return recovered_from_crash_; }

 private:
  Status OpenInternal(bool after_crash);
  Status OpenBody(bool after_crash);
  void TearDown(bool crash);

  DatabaseOptions options_;
  bool open_ = false;
  bool recovered_from_crash_ = false;
  std::atomic<uint32_t> next_backend_id_{0};
  /// Directory fd lent to the buffer pool for commit-time syncfs.
  int dir_fd_ = -1;

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<CpuCostModel> cpu_;
  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<WaitStatsTable> waits_;
  /// Lives across reopens (sessions are quiesced around control-plane
  /// operations, but the table itself is cheap to keep).
  BackendActivity activity_;
  std::unique_ptr<MagneticDiskModel> disk_device_;
  std::unique_ptr<MagneticDiskModel> ufs_device_;
  std::unique_ptr<MagneticDiskModel> worm_cache_device_;
  std::unique_ptr<WormJukeboxModel> worm_device_;
  std::unique_ptr<MemoryDeviceModel> memory_device_;
  std::unique_ptr<SmgrRegistry> smgrs_;
  WormSmgr* worm_ = nullptr;  // owned by smgrs_
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<CommitLog> clog_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<UnixFileSystem> ufs_;
  std::unique_ptr<CodecRegistry> codecs_;
  std::unique_ptr<OidAllocator> oids_;
  std::unique_ptr<LoManager> lo_;
  DbContext ctx_;
};

}  // namespace pglo

#endif  // PGLO_DB_DATABASE_H_

#ifndef PGLO_LO_LARGE_OBJECT_H_
#define PGLO_LO_LARGE_OBJECT_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "storage/page.h"
#include "txn/transaction.h"

namespace pglo {

/// The four large ADT implementations of §6. "We expect there to be several
/// implementations of large ADTs offering a variety of services at varying
/// performance."
enum class StorageKind : uint8_t {
  kUserFile = 0,      ///< §6.1 u-file: user-placed file, no protection
  kPostgresFile = 1,  ///< §6.2 p-file: DBMS-allocated file
  kFChunk = 2,        ///< §6.3 fixed-length 8K chunks in a POSTGRES class
  kVSegment = 3,      ///< §6.4 variable-length compressed segments
};

std::string_view StorageKindToString(StorageKind kind);
Result<StorageKind> StorageKindFromString(std::string_view name);

/// Creation parameters for a large object (the `storage = ...` clause of
/// `create large type`, §4, plus tuning knobs).
struct LoSpec {
  StorageKind kind = StorageKind::kFChunk;
  /// Storage manager slot holding the object's classes (f-chunk/v-segment
  /// only; the file implementations live in the simulated UNIX FS).
  uint8_t smgr = 0;
  /// Conversion-routine pair ("" or "none" = store uncompressed).
  std::string codec;
  /// Raw bytes per fixed chunk. 8000 fills an 8 KB page after tuple and
  /// page headers (§6.3).
  uint32_t chunk_size = 8000;
  /// Upper bound on one v-segment's raw size; a Write larger than this is
  /// split into several segments.
  uint32_t max_segment = 65536;
  /// For kUserFile: the user-chosen file name ("the user has complete
  /// control over object placement", §6.1). Ignored otherwise.
  std::string ufile_path;
};

/// Seek origins for the file-oriented interface (§4).
enum class Whence { kSet, kCur, kEnd };

/// Byte-addressed accessor over one large object — the common substrate
/// beneath the file-oriented descriptor API (§4). Implementations are
/// stateless with respect to position; LoDescriptor adds the seek pointer.
///
/// This is also §4's portability surface: "A function can be written and
/// debugged using files, and then moved into the database where it can
/// manage large objects without being rewritten." A u-file is a plain
/// UNIX file behind this interface, so a function written against
/// LargeObject runs unchanged over a file and over every DBMS
/// implementation.
class LargeObject {
 public:
  virtual ~LargeObject() = default;

  /// Reads up to `n` bytes at `off` into `buf`; returns bytes read (short
  /// only at end of object).
  virtual Result<size_t> Read(Transaction* txn, uint64_t off, size_t n,
                              uint8_t* buf) = 0;

  /// Writes `data` at `off`, extending the object as needed; gaps read as
  /// zeros.
  virtual Status Write(Transaction* txn, uint64_t off, Slice data) = 0;

  /// Current size in bytes (as visible to `txn`'s snapshot).
  virtual Result<uint64_t> Size(Transaction* txn) = 0;

  /// Shrinks (or grows) the object.
  virtual Status Truncate(Transaction* txn, uint64_t size) = 0;

  /// Removes all backing storage (called by LoManager::Unlink / vacuum).
  virtual Status Destroy(Transaction* txn) = 0;

  /// Reclaims space held by versions deleted at or before `horizon` (and
  /// by aborted transactions). Reclaimed history is no longer reachable
  /// by time travel; pass horizon = 0 to reclaim only aborted garbage.
  /// Returns the number of versions removed. File-backed kinds have no
  /// versions and return 0.
  virtual Result<uint64_t> Vacuum(const CommitLog& clog,
                                  CommitTime horizon) = 0;

  /// Online defragmentation: rewrites the live version of every
  /// chunk/segment, in key order, into fresh pages appended at the end of
  /// the relation. Relocation obeys the no-overwrite discipline — the old
  /// copies are MVCC-deleted under `txn`, so concurrent snapshot readers
  /// keep working, and Vacuum later reclaims the vacated interior pages.
  /// Returns the number of versions relocated. File-backed kinds have no
  /// pages to defragment and return 0.
  virtual Result<uint64_t> Compact(Transaction* txn) {
    (void)txn;
    return static_cast<uint64_t>(0);
  }

  /// Total bytes of underlying storage, split by component; Figure 1's
  /// rows come from here.
  struct StorageFootprint {
    uint64_t data_bytes = 0;   ///< chunk/segment payload storage
    uint64_t index_bytes = 0;  ///< B-tree index storage
    uint64_t map_bytes = 0;    ///< v-segment segment-index ("2-level map")
    uint64_t total() const { return data_bytes + index_bytes + map_bytes; }
  };
  virtual Result<StorageFootprint> Footprint() = 0;

  virtual StorageKind kind() const = 0;
};

/// Streams `lo` through `fn` in bounded pieces, as `txn` sees it (the §3
/// requirement that functions "request small chunks for individual
/// operations" rather than materializing gigabytes). Returns the number of
/// bytes visited.
Result<uint64_t> ForEachPiece(
    LargeObject* lo, Transaction* txn, size_t piece_size,
    const std::function<Status(uint64_t off, Slice piece)>& fn);

}  // namespace pglo

#endif  // PGLO_LO_LARGE_OBJECT_H_

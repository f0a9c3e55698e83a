#ifndef PGLO_LO_LO_MANAGER_H_
#define PGLO_LO_LO_MANAGER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "db/context.h"
#include "heap/heap_class.h"
#include "lo/large_object.h"

namespace pglo {

/// Names of the relation files backing a chunked large object. Which
/// fields are used depends on the storage kind: f-chunk fills data/index,
/// v-segment fills seg_heap/seg_index plus the inner byte store's
/// inner_data/inner_index. Zero = unused slot.
struct BackingFiles {
  Oid data = 0;         ///< f-chunk heap
  Oid index = 0;        ///< f-chunk seqno B-tree
  Oid seg_heap = 0;     ///< v-segment segment_ndx records
  Oid seg_index = 0;    ///< v-segment locn B-tree
  Oid inner_data = 0;   ///< v-segment inner byte store heap
  Oid inner_index = 0;  ///< v-segment inner byte store B-tree
};

/// An open large object: the paper's file-oriented handle. "The
/// application can then open the large object, seek to any byte location,
/// and read any number of bytes." Bound to the transaction that opened it;
/// closed automatically when that transaction ends. Every open handle is
/// one of these — an Inversion file too (InversionFs::Open). The
/// descriptor keeps the seek pointer and calls the transaction's shared
/// accessor for everything else.
class LoDescriptor {
 public:
  LoDescriptor(const LoDescriptor&) = delete;
  LoDescriptor& operator=(const LoDescriptor&) = delete;

  /// Reads up to `n` bytes at the seek pointer, advancing it.
  Result<size_t> Read(size_t n, uint8_t* buf);
  /// Convenience overload returning an owned buffer (shorter at EOF).
  Result<Bytes> Read(size_t n);

  /// Writes at the seek pointer, advancing it. Requires write mode.
  Status Write(Slice data);

  /// Moves the seek pointer; returns the new absolute position. Seeking
  /// past EOF is legal (a later write leaves a hole).
  Result<uint64_t> Seek(int64_t off, Whence whence);
  uint64_t Tell() const { return pos_; }

  Result<uint64_t> Size() { return lo_->Size(txn_); }
  Status Truncate(uint64_t size);

  /// Runs `stamp` once, at the first mutation under this descriptor:
  /// after the first successful Write, or before the first Truncate (whose
  /// failure it then returns). Inversion stamps FILESTAT's mtime here.
  void OnFirstMutation(std::function<Status()> stamp) {
    on_first_mutation_ = std::move(stamp);
  }

  Oid oid() const { return oid_; }
  bool writable() const { return writable_; }
  LargeObject* object() { return lo_.get(); }

 private:
  friend class LoManager;
  LoDescriptor(Transaction* txn, Oid oid, std::shared_ptr<LargeObject> lo,
               bool writable)
      : txn_(txn), oid_(oid), lo_(std::move(lo)), writable_(writable) {}

  /// Runs and clears the first-mutation callback, if one is pending.
  Status Mutated();

  Transaction* txn_;
  Oid oid_;
  std::shared_ptr<LargeObject> lo_;  ///< the transaction's shared accessor
  bool writable_;
  uint64_t pos_ = 0;
  std::function<Status()> on_first_mutation_;
};

/// Creates, opens, and destroys large objects of all four storage kinds.
///
/// Each large object has a row in the LO catalog (itself a no-overwrite
/// heap class, so creation and unlinking are transactional and
/// time-travelable). The row records the storage kind, the conversion
/// routine (codec) name, and the relation files / UNIX file backing the
/// object.
///
/// Multi-backend: the catalog heap is serialized by its relation latch
/// (catalog access is the outermost latch a backend takes — see DESIGN.md
/// §13), and the manager's own descriptor table and GC queues sit behind
/// an internal mutex, so concurrent sessions may create/open/unlink
/// freely. A LoDescriptor itself belongs to the one backend whose
/// transaction opened it and is not shared across threads.
class LoManager {
 public:
  explicit LoManager(const DbContext& ctx);

  /// Creates the LO catalog class; call once when a database is first
  /// initialized (under the bootstrap transaction).
  Status Bootstrap(Transaction* txn);

  /// Creates a large object per `spec`; returns its name (an Oid) — what a
  /// query returns for a large ADT field.
  Result<Oid> Create(Transaction* txn, const LoSpec& spec);

  /// §5 — creates a *temporary* large object for a function's return
  /// value; it is garbage-collected after the transaction (query) ends,
  /// unless promoted first.
  Result<Oid> CreateTemp(Transaction* txn, const LoSpec& spec);

  /// Makes a temporary object permanent (e.g. it was stored into a class).
  Status Promote(Transaction* txn, Oid oid);

  /// Removes the object from the catalog. When `destroy_storage` is true
  /// the backing storage is reclaimed at commit — which forfeits time
  /// travel for that object; when false the bytes stay for historical
  /// snapshots until VacuumOrphans.
  Status Unlink(Transaction* txn, Oid oid, bool destroy_storage = true);

  /// Opens a descriptor. The descriptor lives until Close or transaction
  /// end.
  Result<LoDescriptor*> Open(Transaction* txn, Oid oid, bool writable);

  Status Close(LoDescriptor* desc);

  /// True if `oid` names a large object visible to `txn`.
  Result<bool> Exists(Transaction* txn, Oid oid);

  /// Returns `txn`'s accessor for `oid`, without a descriptor (used by the
  /// function manager and Inversion's Stat, which address bytes
  /// themselves). Handles on one object that are alive at the same time in
  /// one transaction share one accessor — every descriptor and function
  /// call: an accessor caches chunks and the object size, so
  /// private copies would read bytes another handle has since overwritten.
  /// The accessor is freed with its last handle; a later call builds a
  /// fresh one, whose caches start empty.
  Result<std::shared_ptr<LargeObject>> Instantiate(Transaction* txn, Oid oid);

  /// Runs deferred physical destruction queued by Unlink/temp-GC. Called
  /// by Session after each commit and abort; safe to call any time.
  Status CollectGarbage();

  /// Vacuums every large object: reclaims versions deleted at or before
  /// `horizon` plus all aborted garbage, and compacts the LO catalog
  /// itself. Time travel earlier than `horizon` is forfeited for the
  /// vacuumed data. Returns the number of versions removed.
  Result<uint64_t> Vacuum(CommitTime horizon);

  /// Online defragmentation of one large object: relocates its live
  /// chunk/segment versions, in key order, into fresh contiguous pages
  /// under `txn`. No-overwrite relocation — concurrent snapshot readers
  /// keep seeing the old copies until Vacuum reclaims them. Returns the
  /// number of versions relocated.
  Result<uint64_t> Compact(Transaction* txn, Oid oid);

  /// Compacts every object in the catalog under one system transaction;
  /// returns the total versions relocated. Run Vacuum afterwards to
  /// reclaim the vacated interior pages.
  Result<uint64_t> CompactAll();

  /// Moves a chunked large object (f-chunk / v-segment) to another
  /// storage manager — the [OLSO91] archive/recall operation (e.g. demote
  /// a cold video to the WORM jukebox, promote a hot one to NVRAM). The
  /// object keeps its Oid; its current contents are copied under `txn`
  /// and the old storage is reclaimed at commit. Version history does not
  /// migrate (write-once targets could not hold it anyway).
  Status Migrate(Transaction* txn, Oid oid, uint8_t new_smgr);

  /// The name newfilename() would mint for a POSTGRES file object (§6.2).
  static std::string NewFileName(Oid oid) {
    return "pg_lo_" + std::to_string(oid);
  }

  /// Catalog listing for administrative tools (integrity checks, vacuum
  /// UIs): every large object visible to `txn` with its spec and backing
  /// relation files (interpretation per StorageKind; zero = unused slot).
  struct ObjectInfo {
    Oid oid = kInvalidOid;
    LoSpec spec;
    bool temp = false;
    BackingFiles files;  ///< interpretation per StorageKind
  };
  Result<std::vector<ObjectInfo>> List(Transaction* txn);

  /// Storage accounting for Figure 1.
  Result<LargeObject::StorageFootprint> Footprint(Transaction* txn, Oid oid);

 private:
  /// A catalog row is what List reports of an object.
  using CatalogEntry = ObjectInfo;

  static Bytes EncodeEntry(const CatalogEntry& e);
  static Result<CatalogEntry> DecodeEntry(Slice image);

  /// The one catalog walk: visits the rows `txn` sees, decoded, in
  /// physical order until `visit` returns true; returns whether it did.
  /// A row that does not decode is Corruption once the walk reaches it.
  using EntryVisitor =
      std::function<Result<bool>(const CatalogEntry& entry, Tid tid)>;
  Result<bool> ScanCatalog(Transaction* txn, const EntryVisitor& visit);
  Result<std::pair<CatalogEntry, Tid>> FindEntry(Transaction* txn, Oid oid);
  Result<std::unique_ptr<LargeObject>> InstantiateEntry(
      const CatalogEntry& entry);
  Result<Oid> CreateInternal(Transaction* txn, const LoSpec& spec, bool temp);
  void ScheduleDestroy(const CatalogEntry& entry);

  DbContext ctx_;
  HeapClass catalog_;
  // Guards the descriptor table, the accessor table and GC queues (catalog_
  // is protected by its relation latch). Never held across heap/txn calls —
  // transaction finish callbacks re-enter ScheduleDestroy and the queue
  // pushes.
  mutable std::mutex mu_;
  std::unordered_map<LoDescriptor*, std::unique_ptr<LoDescriptor>> open_;
  /// Each live transaction's accessors, by object (see Instantiate). Weak,
  /// so an accessor lives only as long as its handles.
  std::unordered_map<Transaction*,
                     std::unordered_map<Oid, std::weak_ptr<LargeObject>>>
      accessors_;
  std::vector<CatalogEntry> destroy_queue_;
  std::vector<Oid> unlink_queue_;       ///< committed temporaries awaiting GC
  std::unordered_set<Oid> promoted_;    ///< temporaries rescued by Promote
};

}  // namespace pglo

#endif  // PGLO_LO_LO_MANAGER_H_

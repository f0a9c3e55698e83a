#ifndef PGLO_LO_INDEXED_CLASS_H_
#define PGLO_LO_INDEXED_CLASS_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "db/context.h"
#include "heap/heap_class.h"
#include "lo/large_object.h"

namespace pglo {

/// A POSTGRES class plus an unversioned secondary B-tree on a uint64 key:
/// the mechanism §6.3 builds for f-chunk (chunks keyed by sequence number)
/// and §6.4 for v-segment (segment records keyed by locn), that Inversion
/// keeps DIRECTORY in (§8, keyed by a hash of (parent, name)), and that
/// each query-layer index opens over its class (keyed by one field). Its
/// owner keeps the record format; this class is the only code that turns
/// an index entry into a tuple.
///
/// An update leaves the key's old entry in place and adds one for the new
/// version, so a key may have several entries. One rule decides which
/// counts: an entry counts only when heap visibility admits its tuple and
/// the owner's key-of-record function returns the entry's key. An entry
/// whose slot holds another key's record, or a record filed under no key,
/// is stale (an in-place self-update or a Vacuum recycled the slot);
/// readers skip it and Vacuum drops it. A record that does not decode is
/// Corruption, never a stale entry.
class IndexedClass {
 public:
  struct Files {
    RelFileId heap;
    RelFileId index;
  };

  /// Returns the key a record is filed under, nullopt when it is filed
  /// under none (a null field), or Corruption when the record does not
  /// decode.
  using KeyOf = std::function<Result<std::optional<uint64_t>>(Slice record)>;

  /// Allocates and creates both relation files on storage manager `smgr`.
  static Result<Files> Create(const DbContext& ctx, uint8_t smgr);

  IndexedClass(const DbContext& ctx, Files files, KeyOf key_of);

  /// The largest record that fits in one tuple.
  static constexpr uint32_t MaxRecord() { return HeapClass::MaxPayload(); }

  struct Record {
    Tid tid;
    Bytes image;
  };
  /// The record filed under `key` that `txn` sees, if any.
  Result<std::optional<Record>> Get(Transaction* txn, uint64_t key);

  /// Files a new record under `key`.
  Status Insert(Transaction* txn, uint64_t key, Slice image);
  /// Files an entry under `key` for the tuple already stored at `tid`
  /// (a class with several indexes stores each tuple once).
  Status AddEntry(uint64_t key, Tid tid);
  /// Replaces the record at `tid` with a new version filed under `key`.
  Status Update(Transaction* txn, Tid tid, uint64_t key, Slice image);
  /// Updates the record filed under `key`, or inserts one when none exists.
  Status Put(Transaction* txn, uint64_t key, Slice image);
  /// Deletes the version at `tid`; Vacuum drops its index entries later.
  Status Delete(Transaction* txn, Tid tid);

  /// Visits, in key order, the record `txn` sees for each key in
  /// [first, last]. `visit` returns whether it resolved the key; the
  /// remaining entries of a key it did not resolve are probed as well.
  /// The index walk stops once `last` is resolved. Neither `visit` nor a
  /// heap probe runs with the index latched.
  using Visitor =
      std::function<Result<bool>(uint64_t key, Tid tid, const Bytes& image)>;
  Status Scan(Transaction* txn, uint64_t first, uint64_t last,
              const Visitor& visit);
  /// The (key, tid) of every record Scan would visit, in key order.
  Result<std::vector<std::pair<uint64_t, Tid>>> Entries(Transaction* txn,
                                                        uint64_t first,
                                                        uint64_t last);

  /// Vacuums the heap, drops the index entries whose slot no longer holds
  /// a record of their key in any version, and merges underfull index
  /// pages. Returns the versions removed; adds the heap pages emptied plus
  /// index pages merged to `pages_reclaimed`.
  Result<uint64_t> Vacuum(const CommitLog& clog, CommitTime horizon,
                          Counter* pages_reclaimed);

  /// May rewrite a relocated record before it is stored again.
  using Rewrite = std::function<Status(uint64_t key, Bytes* image)>;
  /// No-overwrite relocation of `live` (from Entries, taken before the
  /// relocation files new entries the walk would meet): each record,
  /// rewritten when `rewrite` is set, is appended at the end of the heap
  /// (InsertAppend skips the free-space map on purpose: filling interior
  /// holes would defeat compaction), the old version is MVCC-deleted so
  /// snapshot readers see it until Vacuum, and the index gains an entry
  /// for the new address.
  /// Counts each heap page it fills in `pages_relocated`; returns the
  /// records moved.
  Result<uint64_t> Relocate(Transaction* txn,
                            const std::vector<std::pair<uint64_t, Tid>>& live,
                            const Rewrite& rewrite, Counter* pages_relocated);

  /// Discards both files' frames and drops the files.
  Status Drop();
  /// The heap's bytes as data_bytes and the index's as index_bytes.
  Result<LargeObject::StorageFootprint> Footprint();

  /// The class's heap, for sequential scans and direct access to its
  /// records.
  HeapClass& heap() { return heap_; }

 private:
  /// The one rule: the image at `tid` if `txn` sees it and it is filed
  /// under `key`; nullopt for another version or a stale entry.
  Result<std::optional<Bytes>> Resolve(Transaction* txn, uint64_t key,
                                       Tid tid);

  DbContext ctx_;
  Files files_;
  HeapClass heap_;
  Btree index_;
  KeyOf key_of_;
};

/// The conversion-routine pair (§3) as f-chunk applies it to each chunk
/// and v-segment to each segment. Compress and Decompress charge the
/// codec's CPU price to the simulated clock and count the simulated time
/// in `<stats_prefix>.codec_{compress,decompress}_ns`.
class Conversion {
 public:
  /// `codec` may be null: no conversion routines.
  Conversion(const DbContext& ctx, const Compressor* codec,
             const std::string& stats_prefix);

  /// Compresses `raw` into `*packed` and returns true when a codec is
  /// configured and that shrinks the data; otherwise the caller stores
  /// `raw` as it is.
  Result<bool> Compress(Slice raw, Bytes* packed);
  /// Recovers the raw bytes of a stored payload into `*out`. Corruption
  /// unless that yields exactly `raw_len` bytes.
  Status Decompress(Slice stored, bool compressed, uint32_t raw_len,
                    Bytes* out);

 private:
  /// Charges `instr_per_byte` × `bytes` of CPU and counts its time.
  void Charge(double instr_per_byte, uint64_t bytes, Counter* ns);

  DbContext ctx_;
  const Compressor* codec_;
  Counter* c_compress_ns_ = nullptr;
  Counter* c_decompress_ns_ = nullptr;
};

}  // namespace pglo

#endif  // PGLO_LO_INDEXED_CLASS_H_

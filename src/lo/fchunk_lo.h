#ifndef PGLO_LO_FCHUNK_LO_H_
#define PGLO_LO_FCHUNK_LO_H_

#include "lo/indexed_class.h"
#include "lo/large_object.h"

namespace pglo {

/// §6.3 — fixed-length data chunks.
///
/// "For each large object, P, a POSTGRES class is constructed of the form
///  create P (sequence-number = int4, data = byte[8000])."
/// The object is split into chunk_size-byte pieces stored as heap tuples;
/// a secondary B-tree maps sequence number → tuple address (that index is
/// the extra cost random access pays in Figure 2). Chunks are never
/// overwritten — a replace is an MVCC update — so transactions and time
/// travel come for free, and the conversion-routine pair (when configured)
/// compresses each chunk independently, giving just-in-time uncompression.
///
/// A chunk only shares a page with its neighbor when its post-compression
/// size is at most half a page — the mechanism behind Figure 1's "30 %
/// compression saves no space, 50 % halves it".
class FChunkLo : public LargeObject {
 public:
  /// Handles to the object's two relation files (recorded in the LO
  /// catalog by LoManager).
  using Files = IndexedClass::Files;

  /// Creates the backing heap + B-tree and writes the initial size record.
  static Result<Files> CreateStorage(const DbContext& ctx, Transaction* txn,
                                     uint8_t smgr);

  /// `stats_prefix` names this instance's observability counters (the
  /// v-segment inner byte store uses "lo.vseg.store" so its traffic is not
  /// conflated with first-class f-chunk objects).
  FChunkLo(const DbContext& ctx, Files files, const Compressor* codec,
           uint32_t chunk_size, const std::string& stats_prefix = "lo.fchunk");

  Result<size_t> Read(Transaction* txn, uint64_t off, size_t n,
                      uint8_t* buf) override;
  Status Write(Transaction* txn, uint64_t off, Slice data) override;
  Result<uint64_t> Size(Transaction* txn) override;
  Status Truncate(Transaction* txn, uint64_t size) override;
  Status Destroy(Transaction* txn) override;
  Result<uint64_t> Vacuum(const CommitLog& clog, CommitTime horizon) override;
  Result<uint64_t> Compact(Transaction* txn) override;
  Result<StorageFootprint> Footprint() override;
  StorageKind kind() const override { return StorageKind::kFChunk; }

  /// Appends `data` at the current end of object — used by v-segment,
  /// whose compressed segment bytes are "chunked into 8K blocks using the
  /// fixed-block storage scheme" (§6.4). Returns the byte offset the data
  /// landed at.
  Result<uint64_t> Append(Transaction* txn, Slice data);

  /// Deletes every chunk lying entirely below byte `offset` — used by
  /// v-segment compaction to retire byte-store regions that no live
  /// segment references anymore. The logical size is unchanged; after
  /// Vacuum reclaims the deleted versions, reads of the trimmed range
  /// return zeros (nobody issues them).
  Status TrimBefore(Transaction* txn, uint64_t offset);

 private:
  // Sequence number reserved for the object-size record.
  static constexpr uint32_t kSizeSeqno = 0xffffffffu;

  struct ChunkRecord {
    uint32_t seqno;
    bool compressed;
    uint32_t raw_len;
    Slice payload;  // points into the fetched tuple image
  };

  static Bytes EncodeChunk(uint32_t seqno, bool compressed, uint32_t raw_len,
                           Slice payload);
  static Result<ChunkRecord> DecodeChunk(Slice image);
  /// The key a chunk or size record is filed under: its sequence number.
  static Result<std::optional<uint64_t>> ChunkKey(Slice image);

  /// Fetches and decompresses chunk `seqno` into `out` (raw bytes).
  /// Returns false when the chunk does not exist (hole or beyond EOF).
  Result<bool> LoadChunk(Transaction* txn, uint32_t seqno, Bytes* out);

  /// Compresses (when profitable) and inserts/updates chunk `seqno`.
  Status StoreChunk(Transaction* txn, uint32_t seqno, Slice raw);

  Result<uint64_t> LoadSize(Transaction* txn);
  Status StoreSize(Transaction* txn, uint64_t size);

  DbContext ctx_;
  IndexedClass chunks_;
  Conversion conv_;
  uint32_t chunk_size_;
  // One-chunk read cache: a frame-sized access pattern touches the same
  // chunk repeatedly; without this, every 4 KB read would re-fetch and
  // re-decompress a full chunk ("just-in-time uncompression" needs to
  // uncompress each chunk once per pass, not once per byte range).
  // Valid only within one accessor instance (one transaction).
  uint32_t cached_seqno_ = 0xffffffffu;
  bool cached_valid_ = false;
  Bytes cached_chunk_;
  // Size record cache (same lifetime rules as the chunk cache).
  bool size_valid_ = false;
  uint64_t cached_size_ = 0;
  // Observability (null when ctx.stats is null).
  Counter* c_reads_ = nullptr;
  Counter* c_writes_ = nullptr;
  Counter* c_bytes_read_ = nullptr;
  Counter* c_bytes_written_ = nullptr;
  Counter* c_pages_relocated_ = nullptr;
  Counter* c_pages_reclaimed_ = nullptr;
  Histogram* h_read_ = nullptr;
  Histogram* h_write_ = nullptr;
  std::string span_read_name_;
  std::string span_write_name_;
};

}  // namespace pglo

#endif  // PGLO_LO_FCHUNK_LO_H_

#include "lo/vsegment_lo.h"

#include <cstring>

#include "common/logging.h"

namespace pglo {

namespace {
// Segment record: type u8 | locn u64 | raw_len u32 | flags u8 |
//                 stored_len u32 | byte_ptr u64   (26 bytes)
// Size record:    type u8 | size u64
constexpr uint8_t kTypeSegment = 0;
constexpr uint8_t kTypeSize = 1;
constexpr uint8_t kFlagCompressed = 0x1;
constexpr size_t kSegRecordSize = 26;
constexpr size_t kSizeRecordSize = 9;
}  // namespace

Result<VSegmentLo::Files> VSegmentLo::CreateStorage(const DbContext& ctx,
                                                    Transaction* txn,
                                                    uint8_t smgr) {
  PGLO_ASSIGN_OR_RETURN(IndexedClass::Files segments,
                        IndexedClass::Create(ctx, smgr));
  Files files;
  files.seg_heap = segments.heap;
  files.seg_index = segments.index;
  PGLO_ASSIGN_OR_RETURN(files.inner,
                        FChunkLo::CreateStorage(ctx, txn, smgr));
  VSegmentLo lo(ctx, files, nullptr, 65536);
  PGLO_RETURN_IF_ERROR(lo.StoreSize(txn, 0));
  return files;
}

VSegmentLo::VSegmentLo(const DbContext& ctx, Files files,
                       const Compressor* codec, uint32_t max_segment)
    : ctx_(ctx),
      segments_(ctx, IndexedClass::Files{files.seg_heap, files.seg_index},
                &SegmentKey),
      store_(ctx, files.inner, /*codec=*/nullptr, /*chunk_size=*/8000,
             /*stats_prefix=*/"lo.vseg.store"),
      conv_(ctx, codec, "lo.vseg"),
      max_segment_(max_segment) {
  PGLO_CHECK(max_segment_ > 0);
  if (ctx_.stats != nullptr) {
    c_reads_ = ctx_.stats->counter("lo.vseg.reads");
    c_writes_ = ctx_.stats->counter("lo.vseg.writes");
    c_bytes_read_ = ctx_.stats->counter("lo.vseg.bytes_read");
    c_bytes_written_ = ctx_.stats->counter("lo.vseg.bytes_written");
    c_pages_relocated_ = ctx_.stats->counter("lo.vseg.pages_relocated");
    c_pages_reclaimed_ = ctx_.stats->counter("lo.vseg.pages_reclaimed");
    h_read_ = ctx_.stats->histogram("lo.vseg.read_ns");
    h_write_ = ctx_.stats->histogram("lo.vseg.write_ns");
  }
}

Bytes VSegmentLo::EncodeSegment(const SegRecord& rec) {
  Bytes image;
  image.reserve(kSegRecordSize);
  image.push_back(kTypeSegment);
  PutFixed64(&image, rec.locn);
  PutFixed32(&image, rec.raw_len);
  image.push_back(rec.compressed ? kFlagCompressed : 0);
  PutFixed32(&image, rec.stored_len);
  PutFixed64(&image, rec.byte_ptr);
  return image;
}

Result<VSegmentLo::SegRecord> VSegmentLo::DecodeSegment(Slice image) {
  if (image.size() < kSegRecordSize || image[0] != kTypeSegment) {
    return Status::Corruption("bad segment record");
  }
  SegRecord rec;
  rec.locn = DecodeFixed64(image.data() + 1);
  rec.raw_len = DecodeFixed32(image.data() + 9);
  rec.compressed = (image[13] & kFlagCompressed) != 0;
  rec.stored_len = DecodeFixed32(image.data() + 14);
  rec.byte_ptr = DecodeFixed64(image.data() + 18);
  if (!rec.compressed && rec.stored_len != rec.raw_len) {
    return Status::Corruption("raw segment stored length mismatch");
  }
  return rec;
}

Result<std::optional<uint64_t>> VSegmentLo::SegmentKey(Slice image) {
  if (!image.empty() && image[0] == kTypeSize) {
    if (image.size() < kSizeRecordSize) {
      return Status::Corruption("bad size record");
    }
    return std::optional<uint64_t>(kSizeKey);
  }
  PGLO_ASSIGN_OR_RETURN(SegRecord rec, DecodeSegment(image));
  return std::optional<uint64_t>(rec.locn);
}

Result<std::vector<VSegmentLo::SegRecord>> VSegmentLo::FindSegments(
    Transaction* txn, uint64_t off, uint64_t len) {
  std::vector<SegRecord> out;
  if (len == 0) return out;
  // Segments are at most max_segment_ long, so any segment containing
  // `off` starts after off - max_segment_.
  uint64_t seek_from = off >= max_segment_ ? off - max_segment_ + 1 : 0;
  PGLO_RETURN_IF_ERROR(segments_.Scan(
      txn, seek_from, off + len - 1,
      [&](uint64_t, Tid tid, const Bytes& image) -> Result<bool> {
        PGLO_ASSIGN_OR_RETURN(SegRecord rec, DecodeSegment(Slice(image)));
        if (rec.locn + rec.raw_len <= off) return false;  // ends before
        rec.tid = tid;
        out.push_back(rec);
        return true;
      }));
  return out;
}

Status VSegmentLo::LoadSegmentData(Transaction* txn, const SegRecord& rec,
                                   Bytes* out) {
  Bytes stored(rec.stored_len);
  PGLO_ASSIGN_OR_RETURN(
      size_t n, store_.Read(txn, rec.byte_ptr, rec.stored_len, stored.data()));
  if (n != rec.stored_len) {
    return Status::Corruption("segment byte store truncated");
  }
  return conv_.Decompress(Slice(stored), rec.compressed, rec.raw_len, out);
}

Status VSegmentLo::AppendSegmentData(Transaction* txn, Slice raw,
                                     SegRecord* rec) {
  Bytes packed;
  PGLO_ASSIGN_OR_RETURN(rec->compressed, conv_.Compress(raw, &packed));
  Slice payload = rec->compressed ? Slice(packed) : raw;
  rec->raw_len = static_cast<uint32_t>(raw.size());
  rec->stored_len = static_cast<uint32_t>(payload.size());
  PGLO_ASSIGN_OR_RETURN(rec->byte_ptr, store_.Append(txn, payload));
  return Status::OK();
}

Status VSegmentLo::CreateSegment(Transaction* txn, uint64_t locn, Slice raw) {
  SegRecord rec;
  rec.locn = locn;
  PGLO_RETURN_IF_ERROR(AppendSegmentData(txn, raw, &rec));
  Bytes image = EncodeSegment(rec);
  return segments_.Insert(txn, locn, Slice(image));
}

Status VSegmentLo::ReplaceSegment(Transaction* txn, const SegRecord& old_rec,
                                  Slice new_raw) {
  SegRecord rec;
  rec.locn = old_rec.locn;
  PGLO_RETURN_IF_ERROR(AppendSegmentData(txn, new_raw, &rec));
  return UpdateSegment(txn, old_rec.tid, rec);
}

Status VSegmentLo::UpdateSegment(Transaction* txn, Tid old_tid,
                                 const SegRecord& rec) {
  Bytes image = EncodeSegment(rec);
  return segments_.Update(txn, old_tid, rec.locn, Slice(image));
}

Result<uint64_t> VSegmentLo::LoadSize(Transaction* txn) {
  if (size_valid_) return cached_size_;
  PGLO_ASSIGN_OR_RETURN(std::optional<IndexedClass::Record> found,
                        segments_.Get(txn, kSizeKey));
  if (!found) return Status::NotFound("large object has no size record");
  cached_size_ = DecodeFixed64(found->image.data() + 1);
  size_valid_ = true;
  return cached_size_;
}

Status VSegmentLo::StoreSize(Transaction* txn, uint64_t size) {
  cached_size_ = size;
  size_valid_ = true;
  Bytes image;
  image.push_back(kTypeSize);
  PutFixed64(&image, size);
  return segments_.Put(txn, kSizeKey, Slice(image));
}

Result<uint64_t> VSegmentLo::Size(Transaction* txn) { return LoadSize(txn); }

Result<size_t> VSegmentLo::Read(Transaction* txn, uint64_t off, size_t n,
                                uint8_t* buf) {
  TraceSpan span(ctx_.stats, h_read_, "lo.vseg.read");
  StatInc(c_reads_);
  PGLO_ASSIGN_OR_RETURN(uint64_t size, LoadSize(txn));
  if (off >= size) return static_cast<size_t>(0);
  n = static_cast<size_t>(std::min<uint64_t>(n, size - off));
  std::memset(buf, 0, n);  // segments cover everything, but be defensive
  PGLO_ASSIGN_OR_RETURN(std::vector<SegRecord> segs,
                        FindSegments(txn, off, n));
  Bytes raw;
  for (const SegRecord& rec : segs) {
    uint64_t seg_end = rec.locn + rec.raw_len;
    uint64_t copy_begin = std::max<uint64_t>(off, rec.locn);
    uint64_t copy_end = std::min<uint64_t>(off + n, seg_end);
    if (copy_begin >= copy_end) continue;
    uint8_t* dst = buf + (copy_begin - off);
    size_t len = static_cast<size_t>(copy_end - copy_begin);
    if (!rec.compressed) {
      // A raw segment is a plain byte range of the store: fetch only the
      // requested bytes.
      PGLO_ASSIGN_OR_RETURN(
          size_t got,
          store_.Read(txn, rec.byte_ptr + (copy_begin - rec.locn), len, dst));
      if (got != len) return Status::Corruption("segment byte store truncated");
      continue;
    }
    PGLO_RETURN_IF_ERROR(LoadSegmentData(txn, rec, &raw));
    std::memcpy(dst, raw.data() + (copy_begin - rec.locn), len);
  }
  StatAdd(c_bytes_read_, n);
  return n;
}

Status VSegmentLo::Write(Transaction* txn, uint64_t off, Slice data) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (data.empty()) return Status::OK();
  TraceSpan span(ctx_.stats, h_write_, "lo.vseg.write");
  StatInc(c_writes_);
  StatAdd(c_bytes_written_, data.size());
  PGLO_ASSIGN_OR_RETURN(uint64_t size, LoadSize(txn));

  // 1. Fill any gap between the current end and the write with zero
  //    segments, so visible segments always partition [0, size).
  if (off > size) {
    Bytes zeros(std::min<uint64_t>(off - size, max_segment_), 0);
    uint64_t at = size;
    while (at < off) {
      size_t take =
          static_cast<size_t>(std::min<uint64_t>(off - at, max_segment_));
      PGLO_RETURN_IF_ERROR(CreateSegment(txn, at, Slice(zeros).Sub(0, take)));
      at += take;
    }
    size = off;
  }

  // 2. Overlap region. A raw segment is overwritten in place in the byte
  //    store, whose chunks version themselves; a compressed one is
  //    re-versioned with merged data, since it can only be decoded whole.
  uint64_t overlap_end = std::min<uint64_t>(off + data.size(), size);
  if (off < size) {
    PGLO_ASSIGN_OR_RETURN(std::vector<SegRecord> segs,
                          FindSegments(txn, off, overlap_end - off));
    Bytes raw;
    for (const SegRecord& rec : segs) {
      uint64_t seg_end = rec.locn + rec.raw_len;
      uint64_t merge_begin = std::max<uint64_t>(off, rec.locn);
      uint64_t merge_end = std::min<uint64_t>(off + data.size(), seg_end);
      if (merge_begin >= merge_end) continue;
      if (!rec.compressed) {
        PGLO_RETURN_IF_ERROR(store_.Write(
            txn, rec.byte_ptr + (merge_begin - rec.locn),
            data.Sub(merge_begin - off, merge_end - merge_begin)));
      } else if (merge_begin == rec.locn && merge_end == seg_end) {
        // Whole-segment replace: skip the read.
        PGLO_RETURN_IF_ERROR(ReplaceSegment(
            txn, rec, data.Sub(merge_begin - off, rec.raw_len)));
      } else {
        PGLO_RETURN_IF_ERROR(LoadSegmentData(txn, rec, &raw));
        std::memcpy(raw.data() + (merge_begin - rec.locn),
                    data.data() + (merge_begin - off),
                    merge_end - merge_begin);
        PGLO_RETURN_IF_ERROR(ReplaceSegment(txn, rec, Slice(raw)));
      }
    }
  }

  // 3. Extension: "each time the large object is extended, a new segment
  //    is created" (§6.4) — one per Write, split at max_segment.
  if (off + data.size() > size) {
    uint64_t at = std::max<uint64_t>(off, size);
    while (at < off + data.size()) {
      size_t take = static_cast<size_t>(
          std::min<uint64_t>(off + data.size() - at, max_segment_));
      PGLO_RETURN_IF_ERROR(
          CreateSegment(txn, at, data.Sub(at - off, take)));
      at += take;
    }
    PGLO_RETURN_IF_ERROR(StoreSize(txn, off + data.size()));
  }
  return Status::OK();
}

Status VSegmentLo::Truncate(Transaction* txn, uint64_t size) {
  PGLO_ASSIGN_OR_RETURN(uint64_t old_size, LoadSize(txn));
  if (size < old_size) {
    PGLO_ASSIGN_OR_RETURN(std::vector<SegRecord> segs,
                          FindSegments(txn, size, old_size - size));
    Bytes raw;
    for (const SegRecord& rec : segs) {
      if (rec.locn >= size) {
        // Entirely beyond the new end: delete the record.
        PGLO_RETURN_IF_ERROR(segments_.Delete(txn, rec.tid));
      } else if (!rec.compressed) {
        // Straddles the boundary, stored raw: shorten the record over the
        // same store bytes. Moving the kept bytes to a fresh copy would
        // drop a concurrent in-place overwrite of them, which versions
        // only store chunks and so never conflicts with this update.
        SegRecord shortened = rec;
        shortened.raw_len = static_cast<uint32_t>(size - rec.locn);
        shortened.stored_len = shortened.raw_len;
        PGLO_RETURN_IF_ERROR(UpdateSegment(txn, rec.tid, shortened));
      } else {
        // Straddles the boundary, compressed: re-version with the
        // shortened raw data.
        PGLO_RETURN_IF_ERROR(LoadSegmentData(txn, rec, &raw));
        raw.resize(static_cast<size_t>(size - rec.locn));
        PGLO_RETURN_IF_ERROR(ReplaceSegment(txn, rec, Slice(raw)));
      }
    }
  }
  return StoreSize(txn, size);
}

Result<uint64_t> VSegmentLo::Vacuum(const CommitLog& clog,
                                    CommitTime horizon) {
  size_valid_ = false;
  PGLO_ASSIGN_OR_RETURN(uint64_t segs,
                        segments_.Vacuum(clog, horizon, c_pages_reclaimed_));
  PGLO_ASSIGN_OR_RETURN(uint64_t chunks, store_.Vacuum(clog, horizon));
  return segs + chunks;
}

Result<uint64_t> VSegmentLo::Compact(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  PGLO_ASSIGN_OR_RETURN(auto live, segments_.Entries(txn, 0, kSizeKey));
  // Each live segment's *contents* are re-appended to the byte store in
  // locn order (so ascending byte_ptr again matches ascending locn —
  // merely moving the records would leave the store scrambled), and the
  // relocated record points at the new bytes. The size record moves
  // verbatim.
  PGLO_ASSIGN_OR_RETURN(uint64_t rewrite_start, store_.Size(txn));
  Bytes raw;
  auto rewrite = [&](uint64_t key, Bytes* image) -> Status {
    if (key == kSizeKey) return Status::OK();
    PGLO_ASSIGN_OR_RETURN(SegRecord rec, DecodeSegment(Slice(*image)));
    PGLO_RETURN_IF_ERROR(LoadSegmentData(txn, rec, &raw));
    SegRecord relocated;
    relocated.locn = rec.locn;
    PGLO_RETURN_IF_ERROR(AppendSegmentData(txn, Slice(raw), &relocated));
    *image = EncodeSegment(relocated);
    return Status::OK();
  };
  PGLO_ASSIGN_OR_RETURN(
      uint64_t moved,
      segments_.Relocate(txn, live, rewrite, c_pages_relocated_));
  // The store region below `rewrite_start` is now referenced only by the
  // old (MVCC-deleted) record versions: retire its chunks so Vacuum can
  // reclaim the pages, then physically compact the surviving tail.
  PGLO_RETURN_IF_ERROR(store_.TrimBefore(txn, rewrite_start));
  PGLO_ASSIGN_OR_RETURN(uint64_t inner, store_.Compact(txn));
  return moved + inner;
}

Status VSegmentLo::Destroy(Transaction* txn) {
  PGLO_RETURN_IF_ERROR(store_.Destroy(txn));
  return segments_.Drop();
}

Result<LargeObject::StorageFootprint> VSegmentLo::Footprint() {
  StorageFootprint fp;
  PGLO_ASSIGN_OR_RETURN(StorageFootprint inner, store_.Footprint());
  PGLO_ASSIGN_OR_RETURN(StorageFootprint segments, segments_.Footprint());
  fp.data_bytes = inner.data_bytes;
  // The segment-record heap plus the byte store's own chunk index form the
  // "2-level map" of Figure 1; the locn B-tree is reported separately.
  fp.map_bytes = segments.data_bytes + inner.index_bytes;
  fp.index_bytes = segments.index_bytes;
  return fp;
}

}  // namespace pglo

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
}  // namespace

Result<VSegmentLo::Files> VSegmentLo::CreateStorage(const DbContext& ctx,
                                                    Transaction* txn,
                                                    uint8_t smgr) {
  Files files;
  files.seg_heap = RelFileId{smgr, ctx.oids->Allocate()};
  files.seg_index = RelFileId{smgr, ctx.oids->Allocate()};
  PGLO_RETURN_IF_ERROR(HeapClass::Create(ctx.pool, files.seg_heap));
  PGLO_RETURN_IF_ERROR(Btree::Create(ctx.pool, files.seg_index));
  PGLO_ASSIGN_OR_RETURN(files.inner,
                        FChunkLo::CreateStorage(ctx, txn, smgr));
  VSegmentLo lo(ctx, files, nullptr, 65536);
  PGLO_RETURN_IF_ERROR(lo.StoreSize(txn, 0));
  return files;
}

VSegmentLo::VSegmentLo(const DbContext& ctx, Files files,
                       const Compressor* codec, uint32_t max_segment)
    : ctx_(ctx),
      files_(files),
      seg_heap_(ctx.pool, files.seg_heap),
      seg_index_(ctx.pool, files.seg_index),
      store_(ctx, files.inner, /*codec=*/nullptr, /*chunk_size=*/8000,
             /*stats_prefix=*/"lo.vseg.store"),
      codec_(codec),
      max_segment_(max_segment) {
  PGLO_CHECK(max_segment_ > 0);
  if (ctx_.stats != nullptr) {
    c_reads_ = ctx_.stats->counter("lo.vseg.reads");
    c_writes_ = ctx_.stats->counter("lo.vseg.writes");
    c_bytes_read_ = ctx_.stats->counter("lo.vseg.bytes_read");
    c_bytes_written_ = ctx_.stats->counter("lo.vseg.bytes_written");
    c_compress_ns_ = ctx_.stats->counter("lo.vseg.codec_compress_ns");
    c_decompress_ns_ = ctx_.stats->counter("lo.vseg.codec_decompress_ns");
    c_pages_relocated_ = ctx_.stats->counter("lo.vseg.pages_relocated");
    c_pages_reclaimed_ = ctx_.stats->counter("lo.vseg.pages_reclaimed");
    h_read_ = ctx_.stats->histogram("lo.vseg.read_ns");
    h_write_ = ctx_.stats->histogram("lo.vseg.write_ns");
    seg_index_.BindStats(ctx_.stats);
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

Result<std::optional<VSegmentLo::SegRecord>> VSegmentLo::MatchSegment(
    uint64_t locn, Slice image) {
  if (image.empty() || image[0] != kTypeSegment) {
    return std::optional<SegRecord>();  // the slot holds the size record
  }
  PGLO_ASSIGN_OR_RETURN(SegRecord rec, DecodeSegment(image));
  if (rec.locn != locn) return std::optional<SegRecord>();
  return std::optional<SegRecord>(rec);
}

Result<std::vector<VSegmentLo::SegRecord>> VSegmentLo::FindSegments(
    Transaction* txn, uint64_t off, uint64_t len) {
  std::vector<SegRecord> out;
  if (len == 0) return out;
  uint64_t end = off + len;
  // Segments are at most max_segment_ long, so any segment containing
  // `off` starts after off - max_segment_.
  uint64_t seek_from = off >= max_segment_ ? off - max_segment_ + 1 : 0;
  PGLO_ASSIGN_OR_RETURN(Btree::Iterator it, seg_index_.Seek(seek_from));
  uint64_t last_locn_taken = ~0ull;
  while (it.valid() && it.key() < end && it.key() != kSizeKey) {
    uint64_t locn = it.key();
    Tid tid = it.tid();
    PGLO_RETURN_IF_ERROR(it.Next());
    if (locn == last_locn_taken) continue;  // already resolved this locn
    Result<Bytes> image = seg_heap_.Get(txn, tid);
    if (!image.ok()) {
      if (image.status().IsNotFound()) continue;  // invisible version
      return image.status();
    }
    PGLO_ASSIGN_OR_RETURN(std::optional<SegRecord> matched,
                          MatchSegment(locn, Slice(image.value())));
    if (!matched) continue;  // stale index entry pointing at a recycled slot
    SegRecord rec = *matched;
    if (rec.locn + rec.raw_len <= off) continue;  // ends before the range
    rec.tid = tid;
    out.push_back(rec);
    last_locn_taken = locn;
  }
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
  out->clear();
  if (rec.compressed) {
    if (codec_ == nullptr) {
      return Status::Corruption("compressed segment but no codec configured");
    }
    PGLO_RETURN_IF_ERROR(codec_->Decompress(Slice(stored), rec.raw_len, out));
    if (ctx_.cpu != nullptr) {
      uint64_t before = ctx_.clock != nullptr ? ctx_.clock->NowNanos() : 0;
      ctx_.cpu->ChargePerByte(codec_->decompress_instr_per_byte(),
                              rec.raw_len);
      if (ctx_.clock != nullptr) {
        StatAdd(c_decompress_ns_, ctx_.clock->NowNanos() - before);
      }
    }
  } else {
    *out = std::move(stored);
  }
  if (out->size() != rec.raw_len) {
    return Status::Corruption("segment raw length mismatch");
  }
  return Status::OK();
}

Status VSegmentLo::AppendSegmentData(Transaction* txn, Slice raw,
                                     SegRecord* rec) {
  rec->raw_len = static_cast<uint32_t>(raw.size());
  rec->compressed = false;
  Slice payload = raw;
  Bytes compressed_buf;
  if (codec_ != nullptr) {
    PGLO_RETURN_IF_ERROR(codec_->Compress(raw, &compressed_buf));
    if (ctx_.cpu != nullptr) {
      uint64_t before = ctx_.clock != nullptr ? ctx_.clock->NowNanos() : 0;
      ctx_.cpu->ChargePerByte(codec_->compress_instr_per_byte(), raw.size());
      if (ctx_.clock != nullptr) {
        StatAdd(c_compress_ns_, ctx_.clock->NowNanos() - before);
      }
    }
    if (compressed_buf.size() < raw.size()) {
      rec->compressed = true;
      payload = Slice(compressed_buf);
    }
  }
  rec->stored_len = static_cast<uint32_t>(payload.size());
  PGLO_ASSIGN_OR_RETURN(rec->byte_ptr, store_.Append(txn, payload));
  return Status::OK();
}

Status VSegmentLo::CreateSegment(Transaction* txn, uint64_t locn, Slice raw) {
  SegRecord rec;
  rec.locn = locn;
  PGLO_RETURN_IF_ERROR(AppendSegmentData(txn, raw, &rec));
  Bytes image = EncodeSegment(rec);
  PGLO_ASSIGN_OR_RETURN(Tid tid, seg_heap_.Insert(txn, Slice(image)));
  return seg_index_.InsertIfAbsent(locn, tid);
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
  PGLO_ASSIGN_OR_RETURN(Tid tid, seg_heap_.Update(txn, old_tid, Slice(image)));
  return seg_index_.InsertIfAbsent(rec.locn, tid);
}

Result<uint64_t> VSegmentLo::LoadSize(Transaction* txn) {
  if (size_valid_) return cached_size_;
  PGLO_ASSIGN_OR_RETURN(std::vector<uint64_t> candidates,
                        seg_index_.Lookup(kSizeKey));
  for (uint64_t packed : candidates) {
    Tid tid = Btree::UnpackTid(packed);
    Result<Bytes> image = seg_heap_.Get(txn, tid);
    if (!image.ok()) {
      if (image.status().IsNotFound()) continue;
      return image.status();
    }
    const Bytes& data = image.value();
    if (data.size() < 9 || data[0] != kTypeSize) {
      continue;  // stale index entry pointing at a recycled slot
    }
    cached_size_ = DecodeFixed64(data.data() + 1);
    size_valid_ = true;
    return cached_size_;
  }
  return Status::NotFound("large object has no size record");
}

Status VSegmentLo::StoreSize(Transaction* txn, uint64_t size) {
  cached_size_ = size;
  size_valid_ = true;
  Bytes image;
  image.push_back(kTypeSize);
  PutFixed64(&image, size);
  PGLO_ASSIGN_OR_RETURN(std::vector<uint64_t> candidates,
                        seg_index_.Lookup(kSizeKey));
  for (uint64_t packed : candidates) {
    Tid tid = Btree::UnpackTid(packed);
    Result<Bytes> existing = seg_heap_.Get(txn, tid);
    if (existing.ok()) {
      if (existing.value().size() < 9 ||
          existing.value()[0] != kTypeSize) {
        continue;  // stale index entry pointing at a recycled slot
      }
      PGLO_ASSIGN_OR_RETURN(Tid new_tid,
                            seg_heap_.Update(txn, tid, Slice(image)));
      return seg_index_.InsertIfAbsent(kSizeKey, new_tid);
    }
    if (!existing.status().IsNotFound()) return existing.status();
  }
  PGLO_ASSIGN_OR_RETURN(Tid tid, seg_heap_.Insert(txn, Slice(image)));
  return seg_index_.InsertIfAbsent(kSizeKey, tid);
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
        PGLO_RETURN_IF_ERROR(seg_heap_.Delete(txn, rec.tid));
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
  uint64_t pages_emptied = 0;
  PGLO_ASSIGN_OR_RETURN(uint64_t segs,
                        seg_heap_.Vacuum(clog, horizon, &pages_emptied));
  // Sweep seg_index entries whose heap slot no longer holds a matching
  // record (vacuumed away or recycled). Collect first, then delete —
  // Delete restructures pages under a live iterator.
  std::vector<std::pair<uint64_t, uint64_t>> stale;
  PGLO_ASSIGN_OR_RETURN(Btree::Iterator it, seg_index_.SeekFirst());
  while (it.valid()) {
    Result<std::pair<TupleHeader, Bytes>> any =
        seg_heap_.GetAnyVersion(it.tid());
    bool dead;
    if (any.ok()) {
      const Bytes& image = any.value().second;
      if (it.key() == kSizeKey) {
        dead = image.empty() || image[0] != kTypeSize;
      } else {
        PGLO_ASSIGN_OR_RETURN(std::optional<SegRecord> rec,
                              MatchSegment(it.key(), Slice(image)));
        dead = !rec.has_value();
      }
    } else if (any.status().IsNotFound()) {
      dead = true;
    } else {
      return any.status();
    }
    if (dead) stale.push_back({it.key(), it.value()});
    PGLO_RETURN_IF_ERROR(it.Next());
  }
  for (const auto& [key, value] : stale) {
    Status s = seg_index_.Delete(key, value);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  PGLO_ASSIGN_OR_RETURN(uint64_t merged, seg_index_.MergeUnderfull());
  StatAdd(c_pages_reclaimed_, pages_emptied + merged);
  PGLO_ASSIGN_OR_RETURN(uint64_t chunks, store_.Vacuum(clog, horizon));
  return segs + chunks;
}

Result<uint64_t> VSegmentLo::Compact(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  // Pass 1: resolve the visible version of every segment record (and the
  // size record) in locn order, before any mutation shifts index pages.
  std::vector<std::pair<uint64_t, Tid>> live;
  uint64_t last_key = 0;
  bool have_last = false;
  PGLO_ASSIGN_OR_RETURN(Btree::Iterator it, seg_index_.SeekFirst());
  while (it.valid()) {
    uint64_t key = it.key();
    Tid tid = it.tid();
    PGLO_RETURN_IF_ERROR(it.Next());
    if (have_last && key == last_key) continue;  // already resolved
    Result<Bytes> image = seg_heap_.Get(txn, tid);
    if (!image.ok()) {
      if (image.status().IsNotFound()) continue;  // invisible version
      return image.status();
    }
    bool matches;
    if (key == kSizeKey) {
      matches = !image.value().empty() && image.value()[0] == kTypeSize;
    } else {
      PGLO_ASSIGN_OR_RETURN(std::optional<SegRecord> rec,
                            MatchSegment(key, Slice(image.value())));
      matches = rec.has_value();
    }
    if (!matches) continue;  // stale entry
    live.push_back({key, tid});
    last_key = key;
    have_last = true;
  }
  // Pass 2: no-overwrite relocation. Each live segment's *contents* are
  // re-appended to the byte store in locn order (so ascending byte_ptr
  // again matches ascending locn — merely moving the records would leave
  // the store scrambled), and a fresh record pointing at the new bytes is
  // appended to the segment heap. The size record is relocated verbatim.
  PGLO_ASSIGN_OR_RETURN(uint64_t rewrite_start, store_.Size(txn));
  uint64_t moved = 0;
  BlockNumber prev_block = kInvalidBlock;
  Bytes raw;
  for (const auto& [key, tid] : live) {
    Result<Bytes> image = seg_heap_.Get(txn, tid);
    if (!image.ok()) {
      if (image.status().IsNotFound()) continue;
      return image.status();
    }
    Bytes new_image;
    if (key == kSizeKey) {
      new_image = image.value();
    } else {
      PGLO_ASSIGN_OR_RETURN(SegRecord rec, DecodeSegment(Slice(image.value())));
      rec.tid = tid;
      PGLO_RETURN_IF_ERROR(LoadSegmentData(txn, rec, &raw));
      SegRecord relocated;
      relocated.locn = rec.locn;
      PGLO_RETURN_IF_ERROR(AppendSegmentData(txn, Slice(raw), &relocated));
      new_image = EncodeSegment(relocated);
    }
    PGLO_ASSIGN_OR_RETURN(Tid new_tid,
                          seg_heap_.InsertAppend(txn, Slice(new_image)));
    PGLO_RETURN_IF_ERROR(seg_heap_.Delete(txn, tid));
    PGLO_RETURN_IF_ERROR(seg_index_.InsertIfAbsent(key, new_tid));
    ++moved;
    if (new_tid.block != prev_block) {
      StatInc(c_pages_relocated_);
      prev_block = new_tid.block;
    }
  }
  // The store region below `rewrite_start` is now referenced only by the
  // old (MVCC-deleted) record versions: retire its chunks so Vacuum can
  // reclaim the pages, then physically compact the surviving tail.
  PGLO_RETURN_IF_ERROR(store_.TrimBefore(txn, rewrite_start));
  PGLO_ASSIGN_OR_RETURN(uint64_t inner, store_.Compact(txn));
  return moved + inner;
}

Status VSegmentLo::Destroy(Transaction* txn) {
  PGLO_RETURN_IF_ERROR(store_.Destroy(txn));
  ctx_.pool->DiscardFile(files_.seg_heap, /*discard_dirty=*/true);
  ctx_.pool->DiscardFile(files_.seg_index, /*discard_dirty=*/true);
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr,
                        ctx_.smgrs->Get(files_.seg_heap.smgr_id));
  PGLO_RETURN_IF_ERROR(smgr->DropFile(files_.seg_heap.relfile));
  return smgr->DropFile(files_.seg_index.relfile);
}

Result<LargeObject::StorageFootprint> VSegmentLo::Footprint() {
  StorageFootprint fp;
  PGLO_ASSIGN_OR_RETURN(StorageFootprint inner, store_.Footprint());
  fp.data_bytes = inner.data_bytes;
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr,
                        ctx_.smgrs->Get(files_.seg_heap.smgr_id));
  PGLO_ASSIGN_OR_RETURN(uint64_t heap_bytes,
                        smgr->StorageBytes(files_.seg_heap.relfile));
  // The segment-record heap plus the byte store's own chunk index form the
  // "2-level map" of Figure 1; the locn B-tree is reported separately.
  fp.map_bytes = heap_bytes + inner.index_bytes;
  PGLO_ASSIGN_OR_RETURN(fp.index_bytes,
                        smgr->StorageBytes(files_.seg_index.relfile));
  return fp;
}

}  // namespace pglo

#include "lo/fchunk_lo.h"

#include <cstring>

#include "common/logging.h"

namespace pglo {

namespace {
// Chunk record: seqno u32 | flags u8 | raw_len u32 | payload.
constexpr size_t kChunkHeader = 9;
constexpr uint8_t kFlagCompressed = 0x1;
}  // namespace

Result<FChunkLo::Files> FChunkLo::CreateStorage(const DbContext& ctx,
                                                Transaction* txn,
                                                uint8_t smgr) {
  PGLO_ASSIGN_OR_RETURN(Files files, IndexedClass::Create(ctx, smgr));
  // Initial size record (size 0).
  FChunkLo lo(ctx, files, nullptr, 8000);
  PGLO_RETURN_IF_ERROR(lo.StoreSize(txn, 0));
  return files;
}

FChunkLo::FChunkLo(const DbContext& ctx, Files files, const Compressor* codec,
                   uint32_t chunk_size, const std::string& stats_prefix)
    : ctx_(ctx),
      chunks_(ctx, files, &ChunkKey),
      conv_(ctx, codec, stats_prefix),
      chunk_size_(chunk_size) {
  PGLO_CHECK(chunk_size_ > 0 &&
             chunk_size_ + kChunkHeader <= IndexedClass::MaxRecord());
  if (ctx_.stats != nullptr) {
    c_reads_ = ctx_.stats->counter(stats_prefix + ".reads");
    c_writes_ = ctx_.stats->counter(stats_prefix + ".writes");
    c_bytes_read_ = ctx_.stats->counter(stats_prefix + ".bytes_read");
    c_bytes_written_ = ctx_.stats->counter(stats_prefix + ".bytes_written");
    c_pages_relocated_ =
        ctx_.stats->counter(stats_prefix + ".pages_relocated");
    c_pages_reclaimed_ =
        ctx_.stats->counter(stats_prefix + ".pages_reclaimed");
    h_read_ = ctx_.stats->histogram(stats_prefix + ".read_ns");
    h_write_ = ctx_.stats->histogram(stats_prefix + ".write_ns");
    span_read_name_ = stats_prefix + ".read";
    span_write_name_ = stats_prefix + ".write";
  }
}

Bytes FChunkLo::EncodeChunk(uint32_t seqno, bool compressed, uint32_t raw_len,
                            Slice payload) {
  Bytes image;
  image.reserve(kChunkHeader + payload.size());
  PutFixed32(&image, seqno);
  image.push_back(compressed ? kFlagCompressed : 0);
  PutFixed32(&image, raw_len);
  image.insert(image.end(), payload.data(), payload.data() + payload.size());
  return image;
}

Result<FChunkLo::ChunkRecord> FChunkLo::DecodeChunk(Slice image) {
  if (image.size() < kChunkHeader) {
    return Status::Corruption("chunk record too short");
  }
  ChunkRecord rec;
  rec.seqno = DecodeFixed32(image.data());
  rec.compressed = (image[4] & kFlagCompressed) != 0;
  rec.raw_len = DecodeFixed32(image.data() + 5);
  rec.payload = image.Sub(kChunkHeader, image.size());
  return rec;
}

Result<std::optional<uint64_t>> FChunkLo::ChunkKey(Slice image) {
  PGLO_ASSIGN_OR_RETURN(ChunkRecord rec, DecodeChunk(image));
  return std::optional<uint64_t>(rec.seqno);
}

Result<bool> FChunkLo::LoadChunk(Transaction* txn, uint32_t seqno,
                                 Bytes* out) {
  if (cached_valid_ && cached_seqno_ == seqno) {
    *out = cached_chunk_;
    return true;
  }
  PGLO_ASSIGN_OR_RETURN(std::optional<IndexedClass::Record> found,
                        chunks_.Get(txn, seqno));
  if (!found) return false;
  PGLO_ASSIGN_OR_RETURN(ChunkRecord rec, DecodeChunk(Slice(found->image)));
  PGLO_RETURN_IF_ERROR(
      conv_.Decompress(rec.payload, rec.compressed, rec.raw_len, out));
  cached_seqno_ = seqno;
  cached_chunk_ = *out;
  cached_valid_ = true;
  return true;
}

Status FChunkLo::StoreChunk(Transaction* txn, uint32_t seqno, Slice raw) {
  if (cached_valid_ && cached_seqno_ == seqno) {
    cached_chunk_ = raw.ToBytes();  // keep the cache coherent with writes
  }
  Bytes packed;
  PGLO_ASSIGN_OR_RETURN(bool compressed, conv_.Compress(raw, &packed));
  Bytes image = EncodeChunk(seqno, compressed,
                            static_cast<uint32_t>(raw.size()),
                            compressed ? Slice(packed) : raw);
  return chunks_.Put(txn, seqno, Slice(image));
}

Result<uint64_t> FChunkLo::LoadSize(Transaction* txn) {
  if (size_valid_) return cached_size_;
  PGLO_ASSIGN_OR_RETURN(std::optional<IndexedClass::Record> found,
                        chunks_.Get(txn, kSizeSeqno));
  if (!found) return Status::NotFound("large object has no size record");
  PGLO_ASSIGN_OR_RETURN(ChunkRecord rec, DecodeChunk(Slice(found->image)));
  if (rec.payload.size() < 8) {
    return Status::Corruption("size record too short");
  }
  cached_size_ = DecodeFixed64(rec.payload.data());
  size_valid_ = true;
  return cached_size_;
}

Status FChunkLo::StoreSize(Transaction* txn, uint64_t size) {
  cached_size_ = size;
  size_valid_ = true;
  Bytes value(8);
  EncodeFixed64(value.data(), size);
  Bytes image = EncodeChunk(kSizeSeqno, false, 8, Slice(value));
  return chunks_.Put(txn, kSizeSeqno, Slice(image));
}

Result<uint64_t> FChunkLo::Size(Transaction* txn) { return LoadSize(txn); }

Result<size_t> FChunkLo::Read(Transaction* txn, uint64_t off, size_t n,
                              uint8_t* buf) {
  TraceSpan span(ctx_.stats, h_read_, span_read_name_);
  StatInc(c_reads_);
  PGLO_ASSIGN_OR_RETURN(uint64_t size, LoadSize(txn));
  if (off >= size) return static_cast<size_t>(0);
  n = static_cast<size_t>(std::min<uint64_t>(n, size - off));
  size_t done = 0;
  Bytes chunk;
  while (done < n) {
    uint64_t pos = off + done;
    uint32_t seqno = static_cast<uint32_t>(pos / chunk_size_);
    uint32_t in_chunk = static_cast<uint32_t>(pos % chunk_size_);
    size_t take = std::min<size_t>(n - done, chunk_size_ - in_chunk);
    PGLO_ASSIGN_OR_RETURN(bool found, LoadChunk(txn, seqno, &chunk));
    if (!found) {
      std::memset(buf + done, 0, take);  // hole in a sparse object
    } else {
      if (chunk.size() < in_chunk + take) {
        // Short final chunk within a hole-y region: zero-fill the tail.
        size_t have = chunk.size() > in_chunk ? chunk.size() - in_chunk : 0;
        size_t copy = std::min(take, have);
        if (copy > 0) std::memcpy(buf + done, chunk.data() + in_chunk, copy);
        std::memset(buf + done + copy, 0, take - copy);
      } else {
        std::memcpy(buf + done, chunk.data() + in_chunk, take);
      }
    }
    done += take;
  }
  StatAdd(c_bytes_read_, done);
  return done;
}

Status FChunkLo::Write(Transaction* txn, uint64_t off, Slice data) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  TraceSpan span(ctx_.stats, h_write_, span_write_name_);
  StatInc(c_writes_);
  StatAdd(c_bytes_written_, data.size());
  PGLO_ASSIGN_OR_RETURN(uint64_t size, LoadSize(txn));
  size_t done = 0;
  Bytes chunk;
  while (done < data.size()) {
    uint64_t pos = off + done;
    uint32_t seqno = static_cast<uint32_t>(pos / chunk_size_);
    uint32_t in_chunk = static_cast<uint32_t>(pos % chunk_size_);
    size_t take = std::min<size_t>(data.size() - done, chunk_size_ - in_chunk);
    if (in_chunk == 0 && take == chunk_size_) {
      // Full-chunk overwrite: no fetch needed.
      PGLO_RETURN_IF_ERROR(
          StoreChunk(txn, seqno, data.Sub(done, chunk_size_)));
    } else {
      PGLO_ASSIGN_OR_RETURN(bool found, LoadChunk(txn, seqno, &chunk));
      if (!found) chunk.clear();
      if (chunk.size() < in_chunk + take) {
        chunk.resize(in_chunk + take, 0);
      }
      std::memcpy(chunk.data() + in_chunk, data.data() + done, take);
      // The final chunk of the object may be partial; do not pad it past
      // the object's new end.
      PGLO_RETURN_IF_ERROR(StoreChunk(txn, seqno, Slice(chunk)));
    }
    done += take;
  }
  if (off + data.size() > size) {
    PGLO_RETURN_IF_ERROR(StoreSize(txn, off + data.size()));
  }
  return Status::OK();
}

Result<uint64_t> FChunkLo::Append(Transaction* txn, Slice data) {
  PGLO_ASSIGN_OR_RETURN(uint64_t size, LoadSize(txn));
  PGLO_RETURN_IF_ERROR(Write(txn, size, data));
  return size;
}

Status FChunkLo::TrimBefore(Transaction* txn, uint64_t offset) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  cached_valid_ = false;
  uint32_t first_live = static_cast<uint32_t>(offset / chunk_size_);
  if (first_live == 0) return Status::OK();
  PGLO_ASSIGN_OR_RETURN(auto doomed, chunks_.Entries(txn, 0, first_live - 1));
  for (const auto& [seqno, tid] : doomed) {
    PGLO_RETURN_IF_ERROR(chunks_.Delete(txn, tid));
  }
  return Status::OK();
}

Status FChunkLo::Truncate(Transaction* txn, uint64_t size) {
  cached_valid_ = false;  // chunks past the new end disappear
  PGLO_ASSIGN_OR_RETURN(uint64_t old_size, LoadSize(txn));
  if (size < old_size) {
    uint32_t first_dead =
        static_cast<uint32_t>((size + chunk_size_ - 1) / chunk_size_);
    uint32_t last =
        static_cast<uint32_t>((old_size + chunk_size_ - 1) / chunk_size_);
    for (uint32_t seqno = first_dead; seqno < last; ++seqno) {
      PGLO_ASSIGN_OR_RETURN(std::optional<IndexedClass::Record> chunk,
                            chunks_.Get(txn, seqno));
      if (chunk) PGLO_RETURN_IF_ERROR(chunks_.Delete(txn, chunk->tid));
    }
    // Trim the chunk straddling the new end, so re-extending the object
    // later reads zeros (not stale bytes) beyond `size`.
    if (size % chunk_size_ != 0) {
      uint32_t seqno = static_cast<uint32_t>(size / chunk_size_);
      Bytes chunk;
      PGLO_ASSIGN_OR_RETURN(bool found, LoadChunk(txn, seqno, &chunk));
      if (found && chunk.size() > size % chunk_size_) {
        chunk.resize(static_cast<size_t>(size % chunk_size_));
        PGLO_RETURN_IF_ERROR(StoreChunk(txn, seqno, Slice(chunk)));
      }
    }
  }
  return StoreSize(txn, size);
}

Result<uint64_t> FChunkLo::Vacuum(const CommitLog& clog,
                                  CommitTime horizon) {
  cached_valid_ = false;
  size_valid_ = false;
  return chunks_.Vacuum(clog, horizon, c_pages_reclaimed_);
}

Result<uint64_t> FChunkLo::Compact(Transaction* txn) {
  if (!txn->active()) return Status::Aborted("transaction not active");
  if (txn->read_only()) {
    return Status::PermissionDenied("time-travel transactions are read-only");
  }
  PGLO_ASSIGN_OR_RETURN(auto live, chunks_.Entries(txn, 0, ~0ull));
  return chunks_.Relocate(txn, live, nullptr, c_pages_relocated_);
}

Status FChunkLo::Destroy(Transaction* txn) {
  (void)txn;
  return chunks_.Drop();
}

Result<LargeObject::StorageFootprint> FChunkLo::Footprint() {
  return chunks_.Footprint();
}

}  // namespace pglo

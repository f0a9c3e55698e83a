#include "inversion/inversion_fs.h"

#include "common/logging.h"

namespace pglo {

namespace {
// Reserved relation files for the metadata classes (on the disk smgr).
constexpr Oid kDirectoryRelfile = 12;
constexpr Oid kStorageRelfile = 13;
constexpr Oid kFilestatRelfile = 14;
// (15 is the query layer's index catalog.)
constexpr Oid kDirIndexRelfile = 16;
constexpr uint8_t kMetaSmgr = kSmgrDisk;
}  // namespace

// ---------------------------------------------------------------------------
// Record codecs

Bytes InversionFs::EncodeDir(const DirRecord& r) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(r.name));
  PutFixed64(&out, r.file_id);
  PutFixed64(&out, r.parent);
  out.push_back(r.is_dir ? 1 : 0);
  return out;
}

Result<InversionFs::DirRecord> InversionFs::DecodeDir(Slice image) {
  DirRecord r;
  ByteReader reader{image};
  Slice name;
  uint64_t file_id, parent;
  if (!reader.GetLengthPrefixed(&name) || !reader.GetFixed64(&file_id) ||
      !reader.GetFixed64(&parent) || reader.remaining() < 1) {
    return Status::Corruption("bad DIRECTORY record");
  }
  r.name = name.ToString();
  r.file_id = file_id;
  r.parent = parent;
  r.is_dir = image[image.size() - 1] != 0;
  return r;
}

Bytes InversionFs::EncodeStorage(FileId id, Oid lo) {
  Bytes out;
  PutFixed64(&out, id);
  PutFixed32(&out, lo);
  return out;
}

Result<std::pair<FileId, Oid>> InversionFs::DecodeStorage(Slice image) {
  ByteReader reader{image};
  uint64_t id;
  uint32_t lo;
  if (!reader.GetFixed64(&id) || !reader.GetFixed32(&lo)) {
    return Status::Corruption("bad STORAGE record");
  }
  return std::make_pair(id, lo);
}

Bytes InversionFs::EncodeStat(const StatInfo& st) {
  Bytes out;
  PutFixed64(&out, st.file_id);
  PutFixed32(&out, st.owner);
  PutFixed16(&out, st.mode);
  PutFixed64(&out, st.ctime_ns);
  PutFixed64(&out, st.mtime_ns);
  return out;
}

Result<InversionFs::StatInfo> InversionFs::DecodeStat(Slice image) {
  StatInfo st;
  ByteReader reader{image};
  uint64_t file_id, ctime, mtime;
  uint32_t owner;
  uint16_t mode;
  if (!reader.GetFixed64(&file_id) || !reader.GetFixed32(&owner) ||
      !reader.GetFixed16(&mode) || !reader.GetFixed64(&ctime) ||
      !reader.GetFixed64(&mtime)) {
    return Status::Corruption("bad FILESTAT record");
  }
  st.file_id = file_id;
  st.owner = owner;
  st.mode = mode;
  st.ctime_ns = ctime;
  st.mtime_ns = mtime;
  return st;
}

// ---------------------------------------------------------------------------
// InversionFs

InversionFs::InversionFs(const DbContext& ctx, LoManager* lo)
    : ctx_(ctx),
      lo_(lo),
      directory_(ctx,
                 IndexedClass::Files{
                     RelFileId{kMetaSmgr, kDirectoryRelfile},
                     RelFileId{kMetaSmgr, kDirIndexRelfile}},
                 &DirRecordKey),
      storage_(ctx.pool, RelFileId{kMetaSmgr, kStorageRelfile}),
      filestat_(ctx.pool, RelFileId{kMetaSmgr, kFilestatRelfile}) {
  if (ctx_.stats != nullptr) {
    c_path_resolutions_ = ctx_.stats->counter("inversion.path_resolutions");
    c_index_probes_ = ctx_.stats->counter("inversion.index_probes");
    h_resolve_ = ctx_.stats->histogram("inversion.resolve_ns");
  }
}

uint64_t InversionFs::DirKey(FileId parent, const std::string& name) {
  // FNV-1a over the name, mixed with the parent id.
  uint64_t h = 1469598103934665603ull ^ parent;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Result<std::optional<uint64_t>> InversionFs::DirRecordKey(Slice image) {
  PGLO_ASSIGN_OR_RETURN(DirRecord rec, DecodeDir(image));
  return std::optional<uint64_t>(DirKey(rec.parent, rec.name));
}

Status InversionFs::Bootstrap(Transaction* txn) {
  // Every step is individually idempotent so that a crash anywhere inside
  // a previous bootstrap (files created but empty, index half-built, root
  // record missing) is repaired by simply running Bootstrap again. The
  // old short-circuit on the first file's existence left every later step
  // unfinished forever after a mid-bootstrap crash.
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, ctx_.smgrs->Get(kMetaSmgr));
  for (Oid relfile :
       {kDirectoryRelfile, kStorageRelfile, kFilestatRelfile}) {
    if (!smgr->FileExists(relfile)) {
      PGLO_RETURN_IF_ERROR(
          HeapClass::Create(ctx_.pool, RelFileId{kMetaSmgr, relfile}));
    }
  }
  if (smgr->FileExists(kDirIndexRelfile)) {
    // A b-tree needs its meta and root pages; fewer means the previous
    // bootstrap crashed between CreateFile and flushing them. Rebuild from
    // scratch — the index is empty at this point in bootstrap anyway.
    PGLO_ASSIGN_OR_RETURN(BlockNumber blocks,
                          smgr->NumBlocks(kDirIndexRelfile));
    if (blocks < 2) {
      ctx_.pool->DiscardFile(RelFileId{kMetaSmgr, kDirIndexRelfile},
                             /*discard_dirty=*/true);
      PGLO_RETURN_IF_ERROR(smgr->DropFile(kDirIndexRelfile));
      PGLO_RETURN_IF_ERROR(
          Btree::Create(ctx_.pool, RelFileId{kMetaSmgr, kDirIndexRelfile}));
    }
  } else {
    PGLO_RETURN_IF_ERROR(
        Btree::Create(ctx_.pool, RelFileId{kMetaSmgr, kDirIndexRelfile}));
  }
  // Root directory: "/" with file-id 1, parent 0.
  Result<std::pair<DirRecord, Tid>> existing_root =
      LookupIn(txn, kInvalidFileId, "/");
  if (existing_root.ok()) return Status::OK();
  if (!existing_root.status().IsNotFound()) return existing_root.status();
  DirRecord root{"/", kRootFileId, kInvalidFileId, /*is_dir=*/true};
  PGLO_RETURN_IF_ERROR(directory_.Insert(txn, DirKey(root.parent, root.name),
                                         Slice(EncodeDir(root))));
  StatInfo st;
  st.file_id = kRootFileId;
  st.is_dir = true;
  st.mode = 0755;
  st.ctime_ns = st.mtime_ns = NowNs();
  PGLO_RETURN_IF_ERROR(filestat_.Insert(txn, Slice(EncodeStat(st))).status());
  return Status::OK();
}

Result<std::vector<std::string>> InversionFs::SplitPath(
    const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument("path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  size_t i = 1;
  while (i < path.size()) {
    size_t j = path.find('/', i);
    if (j == std::string::npos) j = path.size();
    if (j == i) return Status::InvalidArgument("empty path component");
    parts.push_back(path.substr(i, j - i));
    i = j + 1;
  }
  return parts;
}

Result<std::pair<InversionFs::DirRecord, Tid>> InversionFs::LookupIn(
    Transaction* txn, FileId parent, const std::string& name) {
  // IndexedClass visits only visible records filed under the key (a record
  // that does not decode is Corruption, just as ReadDir reports it). A name
  // whose hash collides is declined, so the key's other entries are probed.
  StatInc(c_index_probes_);
  std::optional<std::pair<DirRecord, Tid>> found;
  uint64_t key = DirKey(parent, name);
  PGLO_RETURN_IF_ERROR(directory_.Scan(
      txn, key, key,
      [&](uint64_t, Tid tid, const Bytes& image) -> Result<bool> {
        PGLO_ASSIGN_OR_RETURN(DirRecord rec, DecodeDir(Slice(image)));
        if (rec.parent != parent || rec.name != name) return false;
        found.emplace(std::move(rec), tid);
        return true;
      }));
  if (!found) return Status::NotFound("no such file or directory: " + name);
  return std::move(*found);
}

Result<std::pair<InversionFs::DirRecord, Tid>> InversionFs::Resolve(
    Transaction* txn, const std::string& path) {
  TraceSpan span(ctx_.stats, h_resolve_, "inversion.resolve");
  StatInc(c_path_resolutions_);
  PGLO_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  DirRecord current{"/", kRootFileId, kInvalidFileId, true};
  Tid tid{0, 0};  // root's tid is never needed by callers that mutate
  for (const std::string& part : parts) {
    if (!current.is_dir) {
      return Status::InvalidArgument("not a directory in path: " + path);
    }
    PGLO_ASSIGN_OR_RETURN(auto found, LookupIn(txn, current.file_id, part));
    current = found.first;
    tid = found.second;
  }
  return std::make_pair(current, tid);
}

Result<std::pair<FileId, std::string>> InversionFs::ResolveParent(
    Transaction* txn, const std::string& path) {
  TraceSpan span(ctx_.stats, h_resolve_, "inversion.resolve_parent");
  StatInc(c_path_resolutions_);
  PGLO_ASSIGN_OR_RETURN(std::vector<std::string> parts, SplitPath(path));
  if (parts.empty()) {
    return Status::InvalidArgument("cannot operate on the root directory");
  }
  std::string leaf = parts.back();
  parts.pop_back();
  FileId parent = kRootFileId;
  for (const std::string& part : parts) {
    PGLO_ASSIGN_OR_RETURN(auto found, LookupIn(txn, parent, part));
    if (!found.first.is_dir) {
      return Status::InvalidArgument("not a directory in path: " + path);
    }
    parent = found.first.file_id;
  }
  return std::make_pair(parent, leaf);
}

Result<FileId> InversionFs::MkDir(Transaction* txn, const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto parent_leaf, ResolveParent(txn, path));
  auto [parent, leaf] = parent_leaf;
  if (LookupIn(txn, parent, leaf).ok()) {
    return Status::AlreadyExists("path exists: " + path);
  }
  FileId id = ctx_.oids->Allocate();
  DirRecord rec{leaf, id, parent, /*is_dir=*/true};
  PGLO_RETURN_IF_ERROR(
      directory_.Insert(txn, DirKey(parent, leaf), Slice(EncodeDir(rec))));
  StatInfo st;
  st.file_id = id;
  st.is_dir = true;
  st.mode = 0755;
  st.ctime_ns = st.mtime_ns = NowNs();
  PGLO_RETURN_IF_ERROR(filestat_.Insert(txn, Slice(EncodeStat(st))).status());
  return id;
}

Result<FileId> InversionFs::Create(Transaction* txn, const std::string& path,
                                   const LoSpec& spec) {
  PGLO_ASSIGN_OR_RETURN(auto parent_leaf, ResolveParent(txn, path));
  auto [parent, leaf] = parent_leaf;
  if (LookupIn(txn, parent, leaf).ok()) {
    return Status::AlreadyExists("path exists: " + path);
  }
  PGLO_ASSIGN_OR_RETURN(Oid lo_oid, lo_->Create(txn, spec));
  FileId id = ctx_.oids->Allocate();
  DirRecord rec{leaf, id, parent, /*is_dir=*/false};
  PGLO_RETURN_IF_ERROR(
      directory_.Insert(txn, DirKey(parent, leaf), Slice(EncodeDir(rec))));
  PGLO_RETURN_IF_ERROR(
      storage_.Insert(txn, Slice(EncodeStorage(id, lo_oid))).status());
  StatInfo st;
  st.file_id = id;
  st.mode = 0644;
  st.ctime_ns = st.mtime_ns = NowNs();
  PGLO_RETURN_IF_ERROR(filestat_.Insert(txn, Slice(EncodeStat(st))).status());
  return id;
}

namespace {
/// The record of file `id` in `heap` that `txn` sees, and its address:
/// STORAGE and FILESTAT records both lead with the 8-byte file id. `what`
/// names the class in errors.
Result<std::pair<Bytes, Tid>> FindFileRecord(Transaction* txn,
                                             HeapClass* heap, FileId id,
                                             const std::string& what) {
  std::pair<Bytes, Tid> found;
  auto match = [&](Tid tid, Slice record) -> Result<bool> {
    if (record.size() < 8) {
      return Status::Corruption("bad " + what + " record");
    }
    if (DecodeFixed64(record.data()) != id) return false;
    found = {record.ToBytes(), tid};
    return true;
  };
  PGLO_ASSIGN_OR_RETURN(bool hit, heap->Scan(txn, match));
  if (!hit) return Status::NotFound("no " + what + " record for file");
  return found;
}
}  // namespace

Result<std::pair<Oid, Tid>> InversionFs::FindStorage(Transaction* txn,
                                                     FileId id) {
  PGLO_ASSIGN_OR_RETURN(auto found,
                        FindFileRecord(txn, &storage_, id, "STORAGE"));
  PGLO_ASSIGN_OR_RETURN(auto rec, DecodeStorage(Slice(found.first)));
  return std::make_pair(rec.second, found.second);
}

Result<std::pair<InversionFs::StatInfo, Tid>> InversionFs::FindStat(
    Transaction* txn, FileId id) {
  PGLO_ASSIGN_OR_RETURN(auto found,
                        FindFileRecord(txn, &filestat_, id, "FILESTAT"));
  PGLO_ASSIGN_OR_RETURN(StatInfo st, DecodeStat(Slice(found.first)));
  return std::make_pair(st, found.second);
}

Result<LoDescriptor*> InversionFs::Open(Transaction* txn,
                                        const std::string& path,
                                        bool writable) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  if (found.first.is_dir) {
    return Status::InvalidArgument("is a directory: " + path);
  }
  FileId id = found.first.file_id;
  PGLO_ASSIGN_OR_RETURN(auto storage, FindStorage(txn, id));
  PGLO_ASSIGN_OR_RETURN(LoDescriptor * desc,
                        lo_->Open(txn, storage.first, writable));
  // One FILESTAT version per open-for-write, not one per I/O.
  desc->OnFirstMutation([this, txn, id] { return TouchMtime(txn, id); });
  return desc;
}

Status InversionFs::Remove(Transaction* txn, const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  if (found.first.is_dir) {
    return Status::InvalidArgument("is a directory: " + path);
  }
  FileId id = found.first.file_id;
  PGLO_RETURN_IF_ERROR(directory_.Delete(txn, found.second));
  PGLO_ASSIGN_OR_RETURN(auto storage, FindStorage(txn, id));
  PGLO_RETURN_IF_ERROR(storage_.Delete(txn, storage.second));
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, id));
  PGLO_RETURN_IF_ERROR(filestat_.Delete(txn, st.second));
  return lo_->Unlink(txn, storage.first, /*destroy_storage=*/true);
}

Status InversionFs::RmDir(Transaction* txn, const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  if (!found.first.is_dir) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  if (found.first.file_id == kRootFileId) {
    return Status::InvalidArgument("cannot remove the root directory");
  }
  PGLO_ASSIGN_OR_RETURN(std::vector<DirEntryInfo> entries,
                        ReadDir(txn, path));
  if (!entries.empty()) {
    return Status::InvalidArgument("directory not empty: " + path);
  }
  PGLO_RETURN_IF_ERROR(directory_.Delete(txn, found.second));
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, found.first.file_id));
  return filestat_.Delete(txn, st.second);
}

Status InversionFs::Rename(Transaction* txn, const std::string& from,
                           const std::string& to) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, from));
  if (found.first.file_id == kRootFileId) {
    return Status::InvalidArgument("cannot rename the root directory");
  }
  PGLO_ASSIGN_OR_RETURN(auto dest, ResolveParent(txn, to));
  auto [new_parent, new_leaf] = dest;
  if (LookupIn(txn, new_parent, new_leaf).ok()) {
    return Status::AlreadyExists("destination exists: " + to);
  }
  DirRecord rec = found.first;
  rec.name = new_leaf;
  rec.parent = new_parent;
  return directory_.Update(txn, found.second, DirKey(new_parent, new_leaf),
                           Slice(EncodeDir(rec)));
}

Result<InversionFs::StatInfo> InversionFs::Stat(Transaction* txn,
                                                const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, found.first.file_id));
  StatInfo info = st.first;
  info.is_dir = found.first.is_dir;
  if (!found.first.is_dir) {
    PGLO_ASSIGN_OR_RETURN(auto storage, FindStorage(txn, found.first.file_id));
    info.large_object = storage.first;
    PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                          lo_->Instantiate(txn, storage.first));
    PGLO_ASSIGN_OR_RETURN(info.size, lo->Size(txn));
  }
  return info;
}

Result<std::vector<InversionFs::DirEntryInfo>> InversionFs::ReadDir(
    Transaction* txn, const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  if (!found.first.is_dir) {
    return Status::InvalidArgument("not a directory: " + path);
  }
  std::vector<DirEntryInfo> out;
  auto collect = [&](Tid, Slice record) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(DirRecord rec, DecodeDir(record));
    if (rec.parent == found.first.file_id && rec.file_id != kRootFileId) {
      out.push_back({rec.name, rec.file_id, rec.is_dir});
    }
    return false;
  };
  PGLO_RETURN_IF_ERROR(directory_.heap().Scan(txn, collect).status());
  return out;
}

Result<bool> InversionFs::Exists(Transaction* txn, const std::string& path) {
  Result<std::pair<DirRecord, Tid>> found = Resolve(txn, path);
  if (found.ok()) return true;
  if (found.status().IsNotFound()) return false;
  return found.status();
}

Result<Oid> InversionFs::LargeObjectOf(Transaction* txn,
                                       const std::string& path) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  if (found.first.is_dir) {
    return Status::InvalidArgument("is a directory: " + path);
  }
  PGLO_ASSIGN_OR_RETURN(auto storage, FindStorage(txn, found.first.file_id));
  return storage.first;
}

Status InversionFs::SetMode(Transaction* txn, const std::string& path,
                            uint16_t mode) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, found.first.file_id));
  StatInfo info = st.first;
  info.mode = mode;
  return filestat_.Update(txn, st.second, Slice(EncodeStat(info))).status();
}

Status InversionFs::SetOwner(Transaction* txn, const std::string& path,
                             uint32_t owner) {
  PGLO_ASSIGN_OR_RETURN(auto found, Resolve(txn, path));
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, found.first.file_id));
  StatInfo info = st.first;
  info.owner = owner;
  return filestat_.Update(txn, st.second, Slice(EncodeStat(info))).status();
}

Status InversionFs::TouchMtime(Transaction* txn, FileId file_id) {
  PGLO_ASSIGN_OR_RETURN(auto st, FindStat(txn, file_id));
  StatInfo info = st.first;
  info.mtime_ns = NowNs();
  return filestat_.Update(txn, st.second, Slice(EncodeStat(info))).status();
}

}  // namespace pglo

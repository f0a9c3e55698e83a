#ifndef PGLO_INVERSION_INVERSION_FS_H_
#define PGLO_INVERSION_INVERSION_FS_H_

#include <memory>
#include <string>
#include <vector>

#include "db/context.h"
#include "heap/heap_class.h"
#include "lo/indexed_class.h"
#include "lo/lo_manager.h"

namespace pglo {

/// File identifier within Inversion (never reused).
using FileId = uint64_t;
constexpr FileId kInvalidFileId = 0;
constexpr FileId kRootFileId = 1;

/// §8 — the Inversion file system: "POSTGRES exports a file system
/// interface to conventional application programs... Because the file
/// system is supported on top of the DBMS, we have called it the Inversion
/// file system."
///
/// Metadata lives in three no-overwrite classes, exactly as the paper
/// specifies:
///   STORAGE   (file-id, large-object)
///   DIRECTORY (file-name, file-id, parent-file-id)
///   FILESTAT  (file-id, owner, mode, times)
/// and file contents are ordinary large ADTs, so "security, transactions,
/// time travel and compression are readily available" — an aborted
/// transaction rolls back file writes *and* namespace changes, and a
/// historical snapshot shows the file tree as of any commit tick. Because
/// metadata is in classes, the query layer can search DIRECTORY like any
/// other class.
class InversionFs {
 public:
  struct StatInfo {
    FileId file_id = kInvalidFileId;
    bool is_dir = false;
    uint64_t size = 0;
    Oid large_object = kInvalidOid;  ///< kInvalidOid for directories
    uint32_t owner = 0;
    uint16_t mode = 0644;
    uint64_t ctime_ns = 0;  ///< simulated time at creation
    uint64_t mtime_ns = 0;  ///< simulated time of last close-after-write
  };

  struct DirEntryInfo {
    std::string name;
    FileId file_id;
    bool is_dir;
  };

  InversionFs(const DbContext& ctx, LoManager* lo);

  /// Creates the three metadata classes and the root directory; run once
  /// per database (idempotent).
  Status Bootstrap(Transaction* txn);

  /// Creates a directory. Parent directories must exist.
  Result<FileId> MkDir(Transaction* txn, const std::string& path);

  /// Creates an empty file backed by a large object built from `spec`
  /// ("Inversion can use either the f-chunk or v-segment large object
  /// implementations for file storage", §10 — u-file/p-file work too).
  Result<FileId> Create(Transaction* txn, const std::string& path,
                        const LoSpec& spec);

  /// Opens a file for reading (and writing when `writable`): the
  /// descriptor LoManager::Open hands out for its large object, under the
  /// same checks, which closes at transaction end. The first mutation
  /// through the descriptor stamps FILESTAT's mtime through this
  /// InversionFs, which must outlive the transaction.
  Result<LoDescriptor*> Open(Transaction* txn, const std::string& path,
                             bool writable);

  /// Removes a file; its storage is reclaimed at commit.
  Status Remove(Transaction* txn, const std::string& path);

  /// Removes an empty directory.
  Status RmDir(Transaction* txn, const std::string& path);

  /// Moves/renames a file or directory.
  Status Rename(Transaction* txn, const std::string& from,
                const std::string& to);

  Result<StatInfo> Stat(Transaction* txn, const std::string& path);

  Result<std::vector<DirEntryInfo>> ReadDir(Transaction* txn,
                                            const std::string& path);

  /// True if the path resolves.
  Result<bool> Exists(Transaction* txn, const std::string& path);

  /// The backing large object of a file (for Footprint / direct access).
  Result<Oid> LargeObjectOf(Transaction* txn, const std::string& path);

  /// Updates FILESTAT.mtime (run by an open file's first mutation).
  Status TouchMtime(Transaction* txn, FileId file_id);

  /// chmod/chown over the FILESTAT class — §8: "a separate class,
  /// FILESTAT, stores file access and modification times, the owner's
  /// user id, and similar information." Being ordinary tuples, permission
  /// changes are transactional and time-traveled like everything else.
  Status SetMode(Transaction* txn, const std::string& path, uint16_t mode);
  Status SetOwner(Transaction* txn, const std::string& path, uint32_t owner);

  /// Direct handles to the metadata classes so the query layer can scan
  /// them ("a user can use the query language to perform searches on the
  /// DIRECTORY class", §8).
  HeapClass& directory_class() { return directory_.heap(); }
  HeapClass& storage_class() { return storage_; }
  HeapClass& filestat_class() { return filestat_; }

 private:
  struct DirRecord {
    std::string name;
    FileId file_id = kInvalidFileId;
    FileId parent = kInvalidFileId;
    bool is_dir = false;
  };

  static Bytes EncodeDir(const DirRecord& r);
  static Result<DirRecord> DecodeDir(Slice image);
  static Bytes EncodeStorage(FileId id, Oid lo);
  static Result<std::pair<FileId, Oid>> DecodeStorage(Slice image);
  static Bytes EncodeStat(const StatInfo& st);
  static Result<StatInfo> DecodeStat(Slice image);

  /// Splits "/a/b/c"; rejects empty components.
  static Result<std::vector<std::string>> SplitPath(const std::string& path);

  /// Finds the entry `name` in directory `parent` via the (parent, name)
  /// hash index on DIRECTORY. Names that collide on the hash are filed
  /// under the same key, so the match is checked against the record.
  Result<std::pair<DirRecord, Tid>> LookupIn(Transaction* txn, FileId parent,
                                             const std::string& name);

  /// Hash key for the DIRECTORY index.
  static uint64_t DirKey(FileId parent, const std::string& name);
  /// The key a DIRECTORY record is filed under: DirKey of its (parent,
  /// name).
  static Result<std::optional<uint64_t>> DirRecordKey(Slice image);

  /// Resolves a full path to its directory record.
  Result<std::pair<DirRecord, Tid>> Resolve(Transaction* txn,
                                            const std::string& path);

  /// Resolves the parent directory of `path`, returning (parent id, leaf
  /// name).
  Result<std::pair<FileId, std::string>> ResolveParent(
      Transaction* txn, const std::string& path);

  Result<std::pair<StatInfo, Tid>> FindStat(Transaction* txn, FileId id);
  Result<std::pair<Oid, Tid>> FindStorage(Transaction* txn, FileId id);

  uint64_t NowNs() const { return ctx_.clock->NowNanos(); }

  DbContext ctx_;
  LoManager* lo_;
  IndexedClass directory_;  ///< B-tree on DirKey(parent, name)
  HeapClass storage_;
  HeapClass filestat_;
  // Observability (null when ctx.stats is null).
  Counter* c_path_resolutions_ = nullptr;
  Counter* c_index_probes_ = nullptr;
  Histogram* h_resolve_ = nullptr;
};

}  // namespace pglo

#endif  // PGLO_INVERSION_INVERSION_FS_H_

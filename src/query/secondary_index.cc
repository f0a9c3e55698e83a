#include "query/secondary_index.h"

#include <cstring>

#include "btree/btree.h"

namespace pglo {
namespace query {

namespace {
/// Reserved relation file of the index catalog (see the other reserved
/// oids: 10 LO catalog, 11 class catalog, 12–14 Inversion).
constexpr Oid kIndexCatalogRelfile = 15;
constexpr uint8_t kCatalogSmgr = kSmgrDisk;

Bytes EncodeInfo(const IndexCatalog::IndexInfo& info) {
  Bytes out;
  PutLengthPrefixed(&out, Slice(info.name));
  PutLengthPrefixed(&out, Slice(info.class_name));
  PutLengthPrefixed(&out, Slice(info.field));
  out.push_back(info.btree_file.smgr_id);
  PutFixed32(&out, info.btree_file.relfile);
  return out;
}

Result<IndexCatalog::IndexInfo> DecodeInfo(Slice image) {
  IndexCatalog::IndexInfo info;
  ByteReader reader{image};
  Slice name, cls, field;
  if (!reader.GetLengthPrefixed(&name) || !reader.GetLengthPrefixed(&cls) ||
      !reader.GetLengthPrefixed(&field) || reader.remaining() < 5) {
    return Status::Corruption("bad index catalog record");
  }
  info.name = name.ToString();
  info.class_name = cls.ToString();
  info.field = field.ToString();
  const uint8_t* tail = image.data() + image.size() - 5;
  info.btree_file.smgr_id = tail[0];
  info.btree_file.relfile = DecodeFixed32(tail + 1);
  return info;
}
}  // namespace

IndexCatalog::IndexCatalog(const DbContext& ctx)
    : ctx_(ctx),
      catalog_(ctx.pool, RelFileId{kCatalogSmgr, kIndexCatalogRelfile}) {}

Status IndexCatalog::Bootstrap() {
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, ctx_.smgrs->Get(kCatalogSmgr));
  if (smgr->FileExists(kIndexCatalogRelfile)) return Status::OK();
  return HeapClass::Create(ctx_.pool,
                           RelFileId{kCatalogSmgr, kIndexCatalogRelfile});
}

Result<uint64_t> IndexCatalog::EncodeKey(const Datum& value) {
  if (value.is_int4()) {
    // Shift into unsigned space so order is preserved.
    return static_cast<uint64_t>(static_cast<int64_t>(value.as_int4())) +
           (1ull << 31);
  }
  if (value.is_oid()) return static_cast<uint64_t>(value.as_oid());
  if (value.is_bool()) return static_cast<uint64_t>(value.as_bool());
  if (value.is_float8()) {
    // IEEE-754 total-order trick: flip all bits of negatives, set the top
    // bit of non-negatives.
    uint64_t bits;
    double v = value.as_float8();
    std::memcpy(&bits, &v, sizeof(bits));
    return (bits & (1ull << 63)) ? ~bits : (bits | (1ull << 63));
  }
  if (value.is_text()) {
    // Big-endian 8-byte prefix: preserves order, truncates (collisions are
    // fine — index scans re-check the actual value).
    const std::string& s = value.as_text();
    uint64_t key = 0;
    for (size_t i = 0; i < 8; ++i) {
      key = (key << 8) |
            (i < s.size() ? static_cast<uint8_t>(s[i]) : 0);
    }
    return key;
  }
  if (value.is_lo()) return static_cast<uint64_t>(value.as_lo().oid);
  return Status::NotSupported("field type is not indexable");
}

Result<std::optional<Tid>> IndexCatalog::Find(Transaction* txn,
                                               const std::string& index_name) {
  std::optional<Tid> found;
  auto match = [&](Tid tid, Slice record) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(IndexInfo info, DecodeInfo(record));
    if (info.name != index_name) return false;
    found = tid;
    return true;
  };
  PGLO_RETURN_IF_ERROR(catalog_.Scan(txn, match).status());
  return found;
}

Result<IndexCatalog::IndexInfo> IndexCatalog::Define(
    Transaction* txn, const std::string& index_name,
    const std::string& class_name, const std::string& field) {
  PGLO_ASSIGN_OR_RETURN(std::optional<Tid> existing, Find(txn, index_name));
  if (existing) return Status::AlreadyExists("index exists: " + index_name);
  IndexInfo info;
  info.name = index_name;
  info.class_name = class_name;
  info.field = field;
  info.btree_file = RelFileId{kCatalogSmgr, ctx_.oids->Allocate()};
  PGLO_RETURN_IF_ERROR(Btree::Create(ctx_.pool, info.btree_file));
  PGLO_RETURN_IF_ERROR(
      catalog_.Insert(txn, Slice(EncodeInfo(info))).status());
  return info;
}

Status IndexCatalog::Remove(Transaction* txn, const std::string& index_name) {
  PGLO_ASSIGN_OR_RETURN(std::optional<Tid> tid, Find(txn, index_name));
  if (!tid) return Status::NotFound("no index named " + index_name);
  return catalog_.Delete(txn, *tid);
}

Result<std::vector<IndexCatalog::IndexInfo>> IndexCatalog::ForClass(
    Transaction* txn, const std::string& class_name) {
  std::vector<IndexInfo> out;
  auto collect = [&](Tid, Slice record) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(IndexInfo info, DecodeInfo(record));
    if (info.class_name == class_name) out.push_back(std::move(info));
    return false;
  };
  PGLO_RETURN_IF_ERROR(catalog_.Scan(txn, collect).status());
  return out;
}

}  // namespace query
}  // namespace pglo

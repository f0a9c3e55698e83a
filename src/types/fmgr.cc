#include "types/fmgr.h"

#include <cstring>

namespace pglo {

Status FunctionRegistry::Register(FunctionInfo info) {
  auto range = functions_.equal_range(info.name);
  for (auto it = range.first; it != range.second; ++it) {
    if (it->second.arg_types == info.arg_types) {
      return Status::AlreadyExists("function already registered: " +
                                   info.name);
    }
  }
  functions_.emplace(info.name, std::move(info));
  return Status::OK();
}

Result<const FunctionRegistry::FunctionInfo*> FunctionRegistry::Resolve(
    const std::string& name, const std::vector<Oid>& args) const {
  auto range = functions_.equal_range(name);
  const FunctionInfo* wildcard_match = nullptr;
  for (auto it = range.first; it != range.second; ++it) {
    const FunctionInfo& f = it->second;
    if (f.arg_types.size() != args.size()) continue;
    bool exact = true, loose = true;
    for (size_t i = 0; i < args.size(); ++i) {
      if (f.arg_types[i] == kInvalidOid) {
        exact = false;
      } else if (f.arg_types[i] != args[i]) {
        exact = false;
        loose = false;
      }
    }
    if (exact) return &f;
    if (loose && wildcard_match == nullptr) wildcard_match = &f;
  }
  if (wildcard_match != nullptr) return wildcard_match;
  return Status::NotFound("no function " + name + "/" +
                          std::to_string(args.size()));
}

Status FunctionRegistry::RegisterOperator(const std::string& symbol, Oid left,
                                          Oid right,
                                          const std::string& function) {
  OpKey key{symbol, left, right};
  auto [it, inserted] = operators_.emplace(key, function);
  if (!inserted) return Status::AlreadyExists("operator exists: " + symbol);
  return Status::OK();
}

Result<const FunctionRegistry::FunctionInfo*>
FunctionRegistry::ResolveOperator(const std::string& symbol, Oid left,
                                  Oid right) const {
  // Exact, then wildcard operand slots.
  const Oid kAny = kInvalidOid;
  for (const auto& [l, r] : {std::pair{left, right}, {left, kAny},
                             {kAny, right}, {kAny, kAny}}) {
    auto it = operators_.find(OpKey{symbol, l, r});
    if (it != operators_.end()) {
      return Resolve(it->second, {left, right});
    }
  }
  return Status::NotFound("no operator " + symbol);
}

namespace {

Result<Oid> LoOidOf(const Datum& d) {
  if (d.is_lo()) return d.as_lo().oid;
  if (d.is_oid()) return d.as_oid();
  if (d.is_int4()) return static_cast<Oid>(d.as_int4());
  return Status::InvalidArgument("argument is not a large object name");
}

/// lo_create(kind-name) -> oid of a new (permanent) large object.
Result<Datum> LoCreate(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(StorageKind kind,
                        StorageKindFromString(args[0].as_text()));
  LoSpec spec;
  spec.kind = kind;
  if (kind == StorageKind::kUserFile) {
    return Status::InvalidArgument(
        "lo_create(u-file) needs a path; use lo_create_at");
  }
  PGLO_ASSIGN_OR_RETURN(Oid oid, ctx.lo->Create(ctx.txn, spec));
  return Datum::OidVal(oid);
}

/// lo_create_at(kind-name, path) -> oid (u-file placement control, §6.1).
Result<Datum> LoCreateAt(FunctionContext& ctx,
                         const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(StorageKind kind,
                        StorageKindFromString(args[0].as_text()));
  LoSpec spec;
  spec.kind = kind;
  spec.ufile_path = args[1].as_text();
  PGLO_ASSIGN_OR_RETURN(Oid oid, ctx.lo->Create(ctx.txn, spec));
  return Datum::OidVal(oid);
}

/// newfilename() -> text, §6.2: "the user must call the function
/// newfilename in order to have POSTGRES perform the allocation."
Result<Datum> NewFileName(FunctionContext& ctx,
                          const std::vector<Datum>& args) {
  (void)args;
  return Datum::Text(LoManager::NewFileName(ctx.db.oids->Allocate()));
}

/// lo_size(lo) -> int4.
Result<Datum> LoSize(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(Oid oid, LoOidOf(args[0]));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  PGLO_ASSIGN_OR_RETURN(uint64_t size, lo->Size(ctx.txn));
  return Datum::Int4(static_cast<int32_t>(size));
}

/// lo_read(lo, off, len) -> text.
Result<Datum> LoRead(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(Oid oid, LoOidOf(args[0]));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  int32_t off = args[1].as_int4();
  int32_t len = args[2].as_int4();
  if (off < 0 || len < 0) {
    return Status::InvalidArgument("negative offset or length");
  }
  Bytes buf(static_cast<size_t>(len));
  PGLO_ASSIGN_OR_RETURN(size_t got,
                        lo->Read(ctx.txn, static_cast<uint64_t>(off),
                                 buf.size(), buf.data()));
  buf.resize(got);
  return Datum::Text(Slice(buf).ToString());
}

/// lo_write(lo, off, text) -> int4 bytes written.
Result<Datum> LoWrite(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(Oid oid, LoOidOf(args[0]));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  int32_t off = args[1].as_int4();
  if (off < 0) return Status::InvalidArgument("negative offset");
  const std::string& text = args[2].as_text();
  PGLO_RETURN_IF_ERROR(lo->Write(ctx.txn, static_cast<uint64_t>(off),
                                 Slice(text)));
  return Datum::Int4(static_cast<int32_t>(text.size()));
}

/// lo_import(path [, kind]) -> oid: copies a UNIX file into a fresh large
/// object, streaming in 64 KB pieces (never buffering the whole file).
Result<Datum> LoImport(FunctionContext& ctx, const std::vector<Datum>& args) {
  const std::string& path = args[0].as_text();
  LoSpec spec;
  if (args.size() > 1) {
    PGLO_ASSIGN_OR_RETURN(spec.kind,
                          StorageKindFromString(args[1].as_text()));
    if (spec.kind == StorageKind::kUserFile) {
      return Status::InvalidArgument("lo_import cannot target u-file");
    }
  }
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, ctx.db.ufs->Lookup(path));
  PGLO_ASSIGN_OR_RETURN(Oid oid, ctx.lo->Create(ctx.txn, spec));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  Bytes buf(64 * 1024);
  uint64_t off = 0;
  for (;;) {
    PGLO_ASSIGN_OR_RETURN(size_t n,
                          ctx.db.ufs->ReadAt(ino, off, buf.size(),
                                             buf.data()));
    if (n == 0) break;
    PGLO_RETURN_IF_ERROR(lo->Write(ctx.txn, off, Slice(buf).Sub(0, n)));
    off += n;
  }
  return Datum::OidVal(oid);
}

/// lo_export(lo, path) -> int4 bytes copied: writes a large object out to
/// a (new) UNIX file.
Result<Datum> LoExport(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(Oid oid, LoOidOf(args[0]));
  const std::string& path = args[1].as_text();
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  PGLO_ASSIGN_OR_RETURN(uint32_t ino, ctx.db.ufs->Create(path));
  Bytes buf(64 * 1024);
  uint64_t off = 0;
  for (;;) {
    PGLO_ASSIGN_OR_RETURN(size_t n,
                          lo->Read(ctx.txn, off, buf.size(), buf.data()));
    if (n == 0) break;
    PGLO_RETURN_IF_ERROR(
        ctx.db.ufs->WriteAt(ino, off, Slice(buf).Sub(0, n)));
    off += n;
  }
  return Datum::Int4(static_cast<int32_t>(off));
}

// Image layout: width u32 | height u32 | row-major 1-byte pixels.
constexpr size_t kImageHeader = 8;

/// clip(image, rect) -> image — the §5 example. Reads only the rows it
/// needs from the source object and returns a *temporary* large object
/// that the transaction garbage-collects.
Result<Datum> Clip(FunctionContext& ctx, const std::vector<Datum>& args) {
  PGLO_ASSIGN_OR_RETURN(Oid src_oid, LoOidOf(args[0]));
  if (!args[1].is_rect()) {
    return Status::InvalidArgument("clip() expects a rect");
  }
  const RectValue& r = args[1].as_rect();
  if (r.x < 0 || r.y < 0 || r.w <= 0 || r.h <= 0) {
    return Status::InvalidArgument("clip rectangle out of range");
  }
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> src,
                        ctx.lo->Instantiate(ctx.txn, src_oid));
  uint8_t header[kImageHeader];
  PGLO_ASSIGN_OR_RETURN(size_t got,
                        src->Read(ctx.txn, 0, kImageHeader, header));
  if (got != kImageHeader) return Status::Corruption("not an image object");
  uint32_t width = DecodeFixed32(header);
  uint32_t height = DecodeFixed32(header + 4);
  uint32_t cw = std::min<uint32_t>(r.w, width > static_cast<uint32_t>(r.x)
                                            ? width - r.x
                                            : 0);
  uint32_t ch = std::min<uint32_t>(r.h, height > static_cast<uint32_t>(r.y)
                                            ? height - r.y
                                            : 0);
  if (cw == 0 || ch == 0) {
    return Status::InvalidArgument("clip rectangle outside the image");
  }

  // The result must be a temporary large object (§5): "a function
  // returning a large object must create a new large object and then fill
  // in the bytes using a collection of write operations."
  PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* type,
                        ctx.types->ByOid(args[0].type()));
  LoSpec spec = type->is_large ? type->lo_spec : LoSpec{};
  PGLO_ASSIGN_OR_RETURN(Oid dst_oid, ctx.lo->CreateTemp(ctx.txn, spec));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> dst,
                        ctx.lo->Instantiate(ctx.txn, dst_oid));
  uint8_t out_header[kImageHeader];
  EncodeFixed32(out_header, cw);
  EncodeFixed32(out_header + 4, ch);
  PGLO_RETURN_IF_ERROR(
      dst->Write(ctx.txn, 0, Slice(out_header, kImageHeader)));
  Bytes row(cw);
  for (uint32_t y = 0; y < ch; ++y) {
    uint64_t src_off = kImageHeader +
                       static_cast<uint64_t>(r.y + y) * width + r.x;
    PGLO_ASSIGN_OR_RETURN(size_t n,
                          src->Read(ctx.txn, src_off, cw, row.data()));
    if (n != cw) return Status::Corruption("image truncated");
    PGLO_RETURN_IF_ERROR(dst->Write(
        ctx.txn, kImageHeader + static_cast<uint64_t>(y) * cw, Slice(row)));
  }
  return Datum::LargeObject(args[0].type(), LoRef{dst_oid});
}

/// image_width(image) -> int4, image_height(image) -> int4.
Result<Datum> ImageDim(FunctionContext& ctx, const std::vector<Datum>& args,
                       bool want_width) {
  PGLO_ASSIGN_OR_RETURN(Oid oid, LoOidOf(args[0]));
  PGLO_ASSIGN_OR_RETURN(std::shared_ptr<LargeObject> lo,
                        ctx.lo->Instantiate(ctx.txn, oid));
  uint8_t header[kImageHeader];
  PGLO_ASSIGN_OR_RETURN(size_t got, lo->Read(ctx.txn, 0, kImageHeader,
                                             header));
  if (got != kImageHeader) return Status::Corruption("not an image object");
  return Datum::Int4(static_cast<int32_t>(
      DecodeFixed32(header + (want_width ? 0 : 4))));
}

}  // namespace

void RegisterBuiltinFunctions(FunctionRegistry* fns) {
  const Oid kAny = kInvalidOid;
  auto check = [](Status s) { (void)s; };
  check(fns->Register({"lo_create", {type_oids::kText}, type_oids::kOid,
                       false, LoCreate}));
  check(fns->Register({"lo_create_at",
                       {type_oids::kText, type_oids::kText},
                       type_oids::kOid, false, LoCreateAt}));
  check(fns->Register({"newfilename", {}, type_oids::kText, false,
                       NewFileName}));
  check(fns->Register({"lo_size", {kAny}, type_oids::kInt4, false, LoSize}));
  check(fns->Register({"lo_read",
                       {kAny, type_oids::kInt4, type_oids::kInt4},
                       type_oids::kText, false, LoRead}));
  check(fns->Register({"lo_write",
                       {kAny, type_oids::kInt4, type_oids::kText},
                       type_oids::kInt4, false, LoWrite}));
  check(fns->Register({"lo_import", {type_oids::kText}, type_oids::kOid,
                       false, LoImport}));
  check(fns->Register({"lo_import", {type_oids::kText, type_oids::kText},
                       type_oids::kOid, false, LoImport}));
  check(fns->Register({"lo_export", {kAny, type_oids::kText},
                       type_oids::kInt4, false, LoExport}));
  check(fns->Register({"clip", {kAny, type_oids::kRect}, kAny, true, Clip}));
  check(fns->Register(
      {"image_width", {kAny}, type_oids::kInt4, false,
       [](FunctionContext& ctx, const std::vector<Datum>& args) {
         return ImageDim(ctx, args, true);
       }}));
  check(fns->Register(
      {"image_height", {kAny}, type_oids::kInt4, false,
       [](FunctionContext& ctx, const std::vector<Datum>& args) {
         return ImageDim(ctx, args, false);
       }}));
}

}  // namespace pglo

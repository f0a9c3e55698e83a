#include "query/executor.h"

#include <cstring>
#include <map>

#include "common/logging.h"

namespace pglo {
namespace query {

namespace {
/// Reserved relation file of the class catalog.
constexpr Oid kClassCatalogRelfile = 11;
constexpr uint8_t kCatalogSmgr = kSmgrDisk;

// Datum wire tags (independent of the type system, so rows survive
// process restarts even for re-registered user types).
enum DatumTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt4 = 2,
  kTagFloat8 = 3,
  kTagText = 4,
  kTagOid = 5,
  kTagRect = 6,
  kTagLo = 7,
  kTagBytes = 8,
};

void EncodeDatum(const Datum& d, Bytes* out) {
  if (d.is_null()) {
    out->push_back(kTagNull);
  } else if (d.is_bool()) {
    out->push_back(kTagBool);
    out->push_back(d.as_bool() ? 1 : 0);
  } else if (d.is_int4()) {
    out->push_back(kTagInt4);
    PutFixed32(out, static_cast<uint32_t>(d.as_int4()));
  } else if (d.is_float8()) {
    out->push_back(kTagFloat8);
    uint64_t bits;
    double v = d.as_float8();
    std::memcpy(&bits, &v, sizeof(bits));
    PutFixed64(out, bits);
  } else if (d.is_text()) {
    out->push_back(kTagText);
    PutLengthPrefixed(out, Slice(d.as_text()));
  } else if (d.is_oid()) {
    out->push_back(kTagOid);
    PutFixed32(out, d.as_oid());
  } else if (d.is_rect()) {
    out->push_back(kTagRect);
    const RectValue& r = d.as_rect();
    PutFixed32(out, static_cast<uint32_t>(r.x));
    PutFixed32(out, static_cast<uint32_t>(r.y));
    PutFixed32(out, static_cast<uint32_t>(r.w));
    PutFixed32(out, static_cast<uint32_t>(r.h));
  } else if (d.is_lo()) {
    out->push_back(kTagLo);
    PutFixed32(out, d.as_lo().oid);
  } else {
    out->push_back(kTagBytes);
    PutLengthPrefixed(out, Slice(d.as_bytes()));
  }
}

/// The key an indexed field's value is filed under; nullopt for a null,
/// which no index entry covers.
Result<std::optional<uint64_t>> FieldKey(const Datum& value) {
  if (value.is_null()) return std::optional<uint64_t>();
  PGLO_ASSIGN_OR_RETURN(uint64_t key, IndexCatalog::EncodeKey(value));
  return std::optional<uint64_t>(key);
}

}  // namespace

Result<size_t> Executor::ClassInfo::FieldIndex(
    const std::string& field) const {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == field) return i;
  }
  return Status::NotFound("class " + name + " has no field " + field);
}

Executor::Executor(const DbContext& ctx, LoManager* lo, TypeRegistry* types,
                   FunctionRegistry* fns)
    : ctx_(ctx),
      lo_(lo),
      types_(types),
      fns_(fns),
      catalog_(ctx.pool, RelFileId{kCatalogSmgr, kClassCatalogRelfile}),
      indexes_(ctx) {}

Status Executor::Bootstrap() {
  PGLO_RETURN_IF_ERROR(indexes_.Bootstrap());
  PGLO_ASSIGN_OR_RETURN(StorageManager * smgr, ctx_.smgrs->Get(kCatalogSmgr));
  if (smgr->FileExists(kClassCatalogRelfile)) return Status::OK();
  return HeapClass::Create(ctx_.pool,
                           RelFileId{kCatalogSmgr, kClassCatalogRelfile});
}

FunctionContext Executor::MakeFunctionContext(Transaction* txn) {
  FunctionContext fctx;
  fctx.db = ctx_;
  fctx.lo = lo_;
  fctx.types = types_;
  fctx.txn = txn;
  return fctx;
}

// --------------------------------------------------------------------------
// Row codec

Bytes Executor::EncodeRow(const std::vector<Datum>& row) {
  Bytes out;
  PutFixed16(&out, static_cast<uint16_t>(row.size()));
  for (const Datum& d : row) EncodeDatum(d, &out);
  return out;
}

Result<std::vector<Datum>> Executor::DecodeRow(const ClassInfo& cls,
                                               Slice image) {
  std::vector<Datum> row;
  size_t pos = 0;
  auto need = [&](size_t n) -> Status {
    if (pos + n > image.size()) return Status::Corruption("short row image");
    return Status::OK();
  };
  PGLO_RETURN_IF_ERROR(need(2));
  uint16_t nfields = DecodeFixed16(image.data());
  pos = 2;
  if (nfields != cls.fields.size()) {
    return Status::Corruption("row arity does not match class schema");
  }
  row.reserve(nfields);
  for (uint16_t i = 0; i < nfields; ++i) {
    PGLO_RETURN_IF_ERROR(need(1));
    uint8_t tag = image[pos++];
    Oid ftype = cls.fields[i].type_oid;
    switch (tag) {
      case kTagNull:
        row.push_back(Datum::Null(ftype));
        break;
      case kTagBool:
        PGLO_RETURN_IF_ERROR(need(1));
        row.push_back(Datum::Bool(image[pos++] != 0));
        break;
      case kTagInt4:
        PGLO_RETURN_IF_ERROR(need(4));
        row.push_back(Datum::Int4(
            static_cast<int32_t>(DecodeFixed32(image.data() + pos))));
        pos += 4;
        break;
      case kTagFloat8: {
        PGLO_RETURN_IF_ERROR(need(8));
        uint64_t bits = DecodeFixed64(image.data() + pos);
        pos += 8;
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        row.push_back(Datum::Float8(v));
        break;
      }
      case kTagText: {
        PGLO_RETURN_IF_ERROR(need(4));
        uint32_t len = DecodeFixed32(image.data() + pos);
        pos += 4;
        PGLO_RETURN_IF_ERROR(need(len));
        row.push_back(
            Datum::Text(image.Sub(pos, len).ToString()));
        pos += len;
        break;
      }
      case kTagOid:
        PGLO_RETURN_IF_ERROR(need(4));
        row.push_back(Datum::OidVal(DecodeFixed32(image.data() + pos)));
        pos += 4;
        break;
      case kTagRect: {
        PGLO_RETURN_IF_ERROR(need(16));
        RectValue r;
        r.x = static_cast<int32_t>(DecodeFixed32(image.data() + pos));
        r.y = static_cast<int32_t>(DecodeFixed32(image.data() + pos + 4));
        r.w = static_cast<int32_t>(DecodeFixed32(image.data() + pos + 8));
        r.h = static_cast<int32_t>(DecodeFixed32(image.data() + pos + 12));
        pos += 16;
        row.push_back(Datum::Rect(r));
        break;
      }
      case kTagLo:
        PGLO_RETURN_IF_ERROR(need(4));
        row.push_back(Datum::LargeObject(
            ftype, LoRef{DecodeFixed32(image.data() + pos)}));
        pos += 4;
        break;
      case kTagBytes: {
        PGLO_RETURN_IF_ERROR(need(4));
        uint32_t len = DecodeFixed32(image.data() + pos);
        pos += 4;
        PGLO_RETURN_IF_ERROR(need(len));
        row.push_back(Datum::UserBytes(ftype, image.Sub(pos, len).ToBytes()));
        pos += len;
        break;
      }
      default:
        return Status::Corruption("unknown datum tag");
    }
  }
  return row;
}

// --------------------------------------------------------------------------
// Class catalog

Result<std::pair<Tid, Bytes>> Executor::FindClassRow(Transaction* txn,
                                                     const std::string& name) {
  std::pair<Tid, Bytes> found;
  auto match = [&](Tid tid, Slice record) -> Result<bool> {
    ByteReader reader{record};
    Slice cname;
    if (!reader.GetLengthPrefixed(&cname)) {
      return Status::Corruption("bad class catalog record");
    }
    if (cname.ToStringView() != name) return false;
    found = {tid, record.ToBytes()};
    return true;
  };
  PGLO_ASSIGN_OR_RETURN(bool hit, catalog_.Scan(txn, match));
  if (!hit) return Status::NotFound("no class named " + name);
  return found;
}

Result<Executor::ClassInfo> Executor::LookupClass(Transaction* txn,
                                                  const std::string& name) {
  PGLO_ASSIGN_OR_RETURN(auto row, FindClassRow(txn, name));
  ByteReader reader{Slice(row.second)};
  Slice cname;
  uint32_t relfile;
  uint16_t smgr, nfields;
  if (!reader.GetLengthPrefixed(&cname) || !reader.GetFixed32(&relfile) ||
      !reader.GetFixed16(&smgr) || !reader.GetFixed16(&nfields)) {
    return Status::Corruption("bad class catalog record");
  }
  ClassInfo info;
  info.name = name;
  info.file = RelFileId{static_cast<uint8_t>(smgr), relfile};
  for (uint16_t i = 0; i < nfields; ++i) {
    Slice fname, ftype;
    if (!reader.GetLengthPrefixed(&fname) ||
        !reader.GetLengthPrefixed(&ftype)) {
      return Status::Corruption("bad class catalog record");
    }
    FieldInfo field;
    field.name = fname.ToString();
    field.type_name = ftype.ToString();
    PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* tinfo,
                          types_->ByName(field.type_name));
    field.type_oid = tinfo->oid;
    info.fields.push_back(std::move(field));
  }
  return info;
}

Result<QueryResult> Executor::ExecCreateClass(Transaction* txn,
                                              const Stmt& stmt) {
  if (LookupClass(txn, stmt.class_name).ok()) {
    return Status::AlreadyExists("class exists: " + stmt.class_name);
  }
  uint8_t smgr = kSmgrDisk;
  if (!stmt.storage_manager.empty()) {
    if (stmt.storage_manager == "disk") {
      smgr = kSmgrDisk;
    } else if (stmt.storage_manager == "main-memory" ||
               stmt.storage_manager == "memory") {
      smgr = kSmgrMemory;
    } else if (stmt.storage_manager == "worm") {
      smgr = kSmgrWorm;
    } else {
      return Status::InvalidArgument("unknown storage manager: " +
                                     stmt.storage_manager);
    }
  }
  // Validate field types now.
  for (const auto& [field, type] : stmt.schema) {
    PGLO_RETURN_IF_ERROR(types_->ByName(type).status());
  }
  Oid relfile = ctx_.oids->Allocate();
  PGLO_RETURN_IF_ERROR(HeapClass::Create(ctx_.pool, RelFileId{smgr, relfile}));
  Bytes record;
  PutLengthPrefixed(&record, Slice(stmt.class_name));
  PutFixed32(&record, relfile);
  PutFixed16(&record, smgr);
  PutFixed16(&record, static_cast<uint16_t>(stmt.schema.size()));
  for (const auto& [field, type] : stmt.schema) {
    PutLengthPrefixed(&record, Slice(field));
    PutLengthPrefixed(&record, Slice(type));
  }
  PGLO_RETURN_IF_ERROR(catalog_.Insert(txn, Slice(record)).status());
  QueryResult result;
  result.affected = 1;
  return result;
}

Result<QueryResult> Executor::ExecCreateLargeType(Transaction* txn,
                                                  const Stmt& stmt) {
  (void)txn;
  if (stmt.input_fn != stmt.output_fn) {
    return Status::InvalidArgument(
        "input and output conversion routines must name the same codec");
  }
  LoSpec spec;
  spec.codec = stmt.input_fn == "none" ? "" : stmt.input_fn;
  if (!stmt.storage_kind.empty()) {
    PGLO_ASSIGN_OR_RETURN(spec.kind,
                          StorageKindFromString(stmt.storage_kind));
  }
  PGLO_RETURN_IF_ERROR(
      types_->RegisterLargeType(stmt.class_name, spec).status());
  QueryResult result;
  result.affected = 1;
  return result;
}

// --------------------------------------------------------------------------
// Expression evaluation

void Executor::CollectClasses(const Expr& expr,
                              std::vector<std::string>* out) {
  switch (expr.kind) {
    case Expr::Kind::kFieldRef:
      if (!expr.class_name.empty()) out->push_back(expr.class_name);
      break;
    case Expr::Kind::kFuncCall:
    case Expr::Kind::kBinaryOp:
      for (const ExprPtr& arg : expr.args) CollectClasses(*arg, out);
      break;
    case Expr::Kind::kCast:
      CollectClasses(*expr.operand, out);
      break;
    case Expr::Kind::kConst:
      break;
  }
}

Result<std::string> Executor::FindRangeClass(const Stmt& stmt) const {
  if (!stmt.class_name.empty()) return stmt.class_name;
  std::vector<std::string> classes;
  for (const Target& t : stmt.targets) CollectClasses(*t.expr, &classes);
  if (stmt.where != nullptr) CollectClasses(*stmt.where, &classes);
  if (classes.empty()) return std::string();
  for (const std::string& c : classes) {
    if (c != classes.front()) {
      return Status::NotSupported(
          "multi-class queries are not supported in this reproduction");
    }
  }
  return classes.front();
}

Result<Datum> Executor::Eval(Transaction* txn, const Expr& expr,
                             const RowContext& row) {
  switch (expr.kind) {
    case Expr::Kind::kConst:
      return expr.constant;
    case Expr::Kind::kFieldRef: {
      if (row.cls == nullptr) {
        return Status::InvalidArgument("field reference outside a scan: " +
                                       expr.field);
      }
      if (!expr.class_name.empty() && expr.class_name != row.cls->name) {
        return Status::InvalidArgument("unknown range variable: " +
                                       expr.class_name);
      }
      PGLO_ASSIGN_OR_RETURN(size_t idx, row.cls->FieldIndex(expr.field));
      return (*row.row)[idx];
    }
    case Expr::Kind::kFuncCall: {
      std::vector<Datum> args;
      std::vector<Oid> arg_types;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        PGLO_ASSIGN_OR_RETURN(Datum v, Eval(txn, *arg, row));
        arg_types.push_back(v.type());
        args.push_back(std::move(v));
      }
      PGLO_ASSIGN_OR_RETURN(const FunctionRegistry::FunctionInfo* fn,
                            fns_->Resolve(expr.func, arg_types));
      FunctionContext fctx = MakeFunctionContext(txn);
      return fn->fn(fctx, args);
    }
    case Expr::Kind::kBinaryOp:
      return EvalBinary(txn, expr, row);
    case Expr::Kind::kCast:
      return EvalCast(txn, expr, row);
  }
  return Status::Internal("unreachable expression kind");
}

Result<Datum> Executor::EvalCast(Transaction* txn, const Expr& expr,
                                 const RowContext& row) {
  PGLO_ASSIGN_OR_RETURN(Datum value, Eval(txn, *expr.operand, row));
  PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* target,
                        types_->ByName(expr.cast_type));
  if (value.type() == target->oid) return value;
  // Render to text (the type's external form), then run the target's
  // input routine — exactly the ADT conversion model of §3.
  std::string text;
  if (value.is_text()) {
    text = value.as_text();
  } else if (value.is_null()) {
    return Datum::Null(target->oid);
  } else {
    PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* source,
                          types_->ByOid(value.type()));
    PGLO_ASSIGN_OR_RETURN(text, source->output(value));
  }
  return target->input(target->oid, text);
}

namespace {
Result<int> CompareDatums(const Datum& a, const Datum& b) {
  if (a.is_text() && b.is_text()) {
    int c = a.as_text().compare(b.as_text());
    return c < 0 ? -1 : c == 0 ? 0 : 1;
  }
  if (a.is_bool() && b.is_bool()) {
    return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
  }
  // A large object compares by its name (oid); accept a numeric literal
  // on the other side — `EMP.picture = 1002` is how queries name objects.
  if (a.is_lo() || b.is_lo()) {
    auto oid_of = [](const Datum& d) -> Result<int64_t> {
      if (d.is_lo()) return static_cast<int64_t>(d.as_lo().oid);
      return d.ToInt64();
    };
    PGLO_ASSIGN_OR_RETURN(int64_t x, oid_of(a));
    PGLO_ASSIGN_OR_RETURN(int64_t y, oid_of(b));
    return x < y ? -1 : x == y ? 0 : 1;
  }
  PGLO_ASSIGN_OR_RETURN(double x, a.ToDouble());
  PGLO_ASSIGN_OR_RETURN(double y, b.ToDouble());
  return x < y ? -1 : x == y ? 0 : 1;
}
}  // namespace

Result<Datum> Executor::EvalBinary(Transaction* txn, const Expr& expr,
                                   const RowContext& row) {
  const std::string& op = expr.func;
  if (op == "and" || op == "or") {
    PGLO_ASSIGN_OR_RETURN(Datum lhs, Eval(txn, *expr.args[0], row));
    if (!lhs.is_bool()) {
      return Status::InvalidArgument("'" + op + "' expects booleans");
    }
    if (op == "and" && !lhs.as_bool()) return Datum::Bool(false);
    if (op == "or" && lhs.as_bool()) return Datum::Bool(true);
    PGLO_ASSIGN_OR_RETURN(Datum rhs, Eval(txn, *expr.args[1], row));
    if (!rhs.is_bool()) {
      return Status::InvalidArgument("'" + op + "' expects booleans");
    }
    return Datum::Bool(rhs.as_bool());
  }

  PGLO_ASSIGN_OR_RETURN(Datum lhs, Eval(txn, *expr.args[0], row));
  PGLO_ASSIGN_OR_RETURN(Datum rhs, Eval(txn, *expr.args[1], row));

  if (op == "=" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
      op == ">=") {
    // Comparisons against a null value never hold (two-valued
    // simplification of SQL's unknown: the row is simply excluded).
    if (lhs.is_null() || rhs.is_null()) return Datum::Bool(false);
    Result<int> cmp = CompareDatums(lhs, rhs);
    if (cmp.ok()) {
      int c = cmp.value();
      if (op == "=") return Datum::Bool(c == 0);
      if (op == "!=") return Datum::Bool(c != 0);
      if (op == "<") return Datum::Bool(c < 0);
      if (op == "<=") return Datum::Bool(c <= 0);
      if (op == ">") return Datum::Bool(c > 0);
      return Datum::Bool(c >= 0);
    }
    // fall through to user operators
  } else if (op == "+" || op == "-" || op == "*" || op == "/") {
    if (lhs.is_int4() && rhs.is_int4()) {
      int64_t a = lhs.as_int4(), b = rhs.as_int4();
      if (op == "/" && b == 0) {
        return Status::InvalidArgument("division by zero");
      }
      int64_t v = op == "+"   ? a + b
                  : op == "-" ? a - b
                  : op == "*" ? a * b
                              : a / b;
      if (v < INT32_MIN || v > INT32_MAX) {
        return Status::OutOfRange("int4 overflow");
      }
      return Datum::Int4(static_cast<int32_t>(v));
    }
    Result<double> a = lhs.ToDouble();
    Result<double> b = rhs.ToDouble();
    if (a.ok() && b.ok()) {
      if (op == "/" && b.value() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      double v = op == "+"   ? a.value() + b.value()
                 : op == "-" ? a.value() - b.value()
                 : op == "*" ? a.value() * b.value()
                             : a.value() / b.value();
      return Datum::Float8(v);
    }
    if (op == "+" && lhs.is_text() && rhs.is_text()) {
      return Datum::Text(lhs.as_text() + rhs.as_text());
    }
    // fall through to user operators
  }

  // User-defined operator dispatch through the function manager.
  Result<const FunctionRegistry::FunctionInfo*> fn =
      fns_->ResolveOperator(op, lhs.type(), rhs.type());
  if (!fn.ok()) {
    return Status::InvalidArgument("no operator '" + op +
                                   "' for these operand types");
  }
  FunctionContext fctx = MakeFunctionContext(txn);
  return fn.value()->fn(fctx, {lhs, rhs});
}

// --------------------------------------------------------------------------
// DML

Result<Datum> Executor::CoerceForField(Transaction* txn,
                                       const FieldInfo& field, Datum value) {
  PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* tinfo,
                        types_->ByOid(field.type_oid));
  if (value.is_null()) return Datum::Null(field.type_oid);
  if (tinfo->is_large) {
    if (value.is_lo()) {
      // A function result may be a temporary object (§5); storing it into
      // a class makes it permanent.
      PGLO_RETURN_IF_ERROR(lo_->Promote(txn, value.as_lo().oid));
      return Datum::LargeObject(field.type_oid, value.as_lo());
    }
    if (value.is_oid() || value.is_int4()) {
      Oid oid = value.is_oid() ? value.as_oid()
                               : static_cast<Oid>(value.as_int4());
      PGLO_RETURN_IF_ERROR(lo_->Promote(txn, oid));
      return Datum::LargeObject(field.type_oid, LoRef{oid});
    }
    if (value.is_text()) {
      // §6.1/§6.2: `append EMP (..., picture = "/usr/joe")` — a path
      // literal creates (or adopts) the file-backed object. For file
      // storage kinds the literal is a UNIX file path; otherwise a fresh
      // object of the type's storage kind is created, to be filled via
      // lo_write or a descriptor.
      LoSpec spec = tinfo->lo_spec;
      if (spec.kind == StorageKind::kUserFile) {
        spec.ufile_path = value.as_text();
      }
      PGLO_ASSIGN_OR_RETURN(Oid oid, lo_->Create(txn, spec));
      return Datum::LargeObject(field.type_oid, LoRef{oid});
    }
    return Status::InvalidArgument("cannot coerce value into large field " +
                                   field.name);
  }
  if (value.type() == field.type_oid) return value;
  if (value.is_text()) {
    return tinfo->input(tinfo->oid, value.as_text());
  }
  // int4 -> float8 widening.
  if (field.type_oid == type_oids::kFloat8 && value.is_int4()) {
    return Datum::Float8(value.as_int4());
  }
  if (field.type_oid == type_oids::kInt4 && value.is_float8()) {
    return Datum::Int4(static_cast<int32_t>(value.as_float8()));
  }
  if (field.type_oid == type_oids::kOid && value.is_int4()) {
    return Datum::OidVal(static_cast<Oid>(value.as_int4()));
  }
  return Status::InvalidArgument("type mismatch for field " + field.name);
}

Result<QueryResult> Executor::ExecAppend(Transaction* txn, const Stmt& stmt) {
  PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, stmt.class_name));
  std::vector<Datum> row(cls.fields.size());
  for (size_t i = 0; i < cls.fields.size(); ++i) {
    row[i] = Datum::Null(cls.fields[i].type_oid);
  }
  RowContext no_row;
  for (const Assignment& a : stmt.assignments) {
    PGLO_ASSIGN_OR_RETURN(size_t idx, cls.FieldIndex(a.field));
    PGLO_ASSIGN_OR_RETURN(Datum value, Eval(txn, *a.expr, no_row));
    PGLO_ASSIGN_OR_RETURN(row[idx],
                          CoerceForField(txn, cls.fields[idx], value));
  }
  HeapClass heap(ctx_.pool, cls.file);
  PGLO_ASSIGN_OR_RETURN(Tid tid, heap.Insert(txn, Slice(EncodeRow(row))));
  PGLO_RETURN_IF_ERROR(MaintainIndexes(txn, cls, row, tid));
  QueryResult result;
  result.affected = 1;
  return result;
}

Status Executor::MaintainIndexes(Transaction* txn, const ClassInfo& cls,
                                 const std::vector<Datum>& row, Tid tid) {
  PGLO_ASSIGN_OR_RETURN(std::vector<IndexCatalog::IndexInfo> infos,
                        indexes_.ForClass(txn, cls.name));
  for (const IndexCatalog::IndexInfo& info : infos) {
    PGLO_ASSIGN_OR_RETURN(size_t field, cls.FieldIndex(info.field));
    PGLO_ASSIGN_OR_RETURN(std::optional<uint64_t> key, FieldKey(row[field]));
    if (!key) continue;
    PGLO_RETURN_IF_ERROR(
        OpenIndex(cls, info.btree_file, field).AddEntry(*key, tid));
  }
  return Status::OK();
}

IndexedClass Executor::OpenIndex(const ClassInfo& cls, RelFileId btree_file,
                                 size_t field) {
  return IndexedClass(
      ctx_, IndexedClass::Files{cls.file, btree_file},
      [this, cls, field](Slice image) -> Result<std::optional<uint64_t>> {
        PGLO_ASSIGN_OR_RETURN(std::vector<Datum> row, DecodeRow(cls, image));
        return FieldKey(row[field]);
      });
}

Result<std::optional<Executor::IndexPlan>> Executor::PlanIndexScan(
    Transaction* txn, const ClassInfo& cls, const Expr* where) {
  if (where == nullptr) return std::optional<IndexPlan>();
  // Walk the top-level AND conjuncts collecting `field <op> <const expr>`
  // constraints: equality, lower bounds (>, >=), and upper bounds (<, <=).
  struct Constraint {
    const Expr* eq = nullptr;
    const Expr* lower = nullptr;
    const Expr* upper = nullptr;
  };
  std::map<std::string, Constraint> constraints;
  std::vector<const Expr*> conjuncts = {where};
  while (!conjuncts.empty()) {
    const Expr* e = conjuncts.back();
    conjuncts.pop_back();
    if (e->kind != Expr::Kind::kBinaryOp) continue;
    if (e->func == "and") {
      conjuncts.push_back(e->args[0].get());
      conjuncts.push_back(e->args[1].get());
      continue;
    }
    const bool is_eq = e->func == "=";
    const bool is_gt = e->func == ">" || e->func == ">=";
    const bool is_lt = e->func == "<" || e->func == "<=";
    if (!is_eq && !is_gt && !is_lt) continue;
    for (int flip = 0; flip < 2; ++flip) {
      const Expr* field_side = flip ? e->args[1].get() : e->args[0].get();
      const Expr* value_side = flip ? e->args[0].get() : e->args[1].get();
      if (field_side->kind != Expr::Kind::kFieldRef) continue;
      std::vector<std::string> classes;
      CollectClasses(*value_side, &classes);
      if (!classes.empty()) continue;  // not a constant expression
      Constraint& c = constraints[field_side->field];
      if (is_eq) {
        c.eq = value_side;
      } else if ((is_gt && flip == 0) || (is_lt && flip == 1)) {
        c.lower = value_side;  // field > v  (or v < field)
      } else {
        c.upper = value_side;  // field < v  (or v > field)
      }
      break;
    }
  }
  if (constraints.empty()) return std::optional<IndexPlan>();

  PGLO_ASSIGN_OR_RETURN(std::vector<IndexCatalog::IndexInfo> infos,
                        indexes_.ForClass(txn, cls.name));
  // The key bounding one side of the range: `unbounded` without a
  // constant. The constant is coerced the way appends coerce it, so that
  // it encodes like the stored values; nullopt when it is null or does not
  // take the field's type (its key would be in another order).
  auto bound_key = [&](size_t field, const Expr* value_expr,
                       uint64_t unbounded) -> Result<std::optional<uint64_t>> {
    if (value_expr == nullptr) return std::optional<uint64_t>(unbounded);
    RowContext no_row;
    PGLO_ASSIGN_OR_RETURN(Datum value, Eval(txn, *value_expr, no_row));
    PGLO_ASSIGN_OR_RETURN(value,
                          CoerceForLookup(txn, cls.fields[field], value));
    if (value.type() != cls.fields[field].type_oid) {
      return std::optional<uint64_t>();
    }
    return FieldKey(value);
  };

  // Equality constraints first (most selective), then ranges. The encoded
  // bounds are inclusive supersets: strict bounds and text-prefix
  // truncation are handled by the recheck.
  for (bool want_eq : {true, false}) {
    for (const auto& [field_name, c] : constraints) {
      if (want_eq != (c.eq != nullptr)) continue;
      for (const IndexCatalog::IndexInfo& info : infos) {
        if (info.field != field_name) continue;
        PGLO_ASSIGN_OR_RETURN(size_t field, cls.FieldIndex(field_name));
        PGLO_ASSIGN_OR_RETURN(
            std::optional<uint64_t> low,
            bound_key(field, want_eq ? c.eq : c.lower, 0));
        PGLO_ASSIGN_OR_RETURN(
            std::optional<uint64_t> high,
            bound_key(field, want_eq ? c.eq : c.upper, ~0ull));
        if (low && high) {
          return std::optional<IndexPlan>(
              IndexPlan{info.btree_file, field, *low, *high});
        }
      }
    }
  }
  return std::optional<IndexPlan>();
}

Result<bool> Executor::Qualifies(Transaction* txn, const Expr* where,
                                 const RowContext& row) {
  if (where == nullptr) return true;
  PGLO_ASSIGN_OR_RETURN(Datum qual, Eval(txn, *where, row));
  if (!qual.is_bool()) {
    return Status::InvalidArgument("where clause is not boolean");
  }
  return qual.as_bool();
}

Status Executor::ForEachMatch(Transaction* txn, const ClassInfo& cls,
                              const Expr* where, const RowVisitor& visit) {
  // Returns false, so a heap walk goes on and an index scan, told that no
  // key resolved, visits every row filed under a key, not only the first.
  auto accept = [&](Tid tid, Slice image) -> Result<bool> {
    PGLO_ASSIGN_OR_RETURN(std::vector<Datum> row, DecodeRow(cls, image));
    PGLO_ASSIGN_OR_RETURN(bool match,
                          Qualifies(txn, where, RowContext{&cls, &row}));
    if (match) PGLO_RETURN_IF_ERROR(visit(tid, std::move(row)));
    return false;
  };
  PGLO_ASSIGN_OR_RETURN(std::optional<IndexPlan> plan,
                        PlanIndexScan(txn, cls, where));
  if (plan) {
    IndexedClass index = OpenIndex(cls, plan->btree_file, plan->field);
    return index.Scan(
        txn, plan->low, plan->high,
        [&](uint64_t, Tid tid, const Bytes& image) -> Result<bool> {
          return accept(tid, Slice(image));
        });
  }
  HeapClass heap(ctx_.pool, cls.file);
  return heap.Scan(txn, accept).status();
}

Result<Datum> Executor::CoerceForLookup(Transaction* txn,
                                        const FieldInfo& field, Datum value) {
  (void)txn;
  if (value.type() == field.type_oid || value.is_null()) return value;
  PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* tinfo,
                        types_->ByOid(field.type_oid));
  if (tinfo->is_large) {
    if (value.is_oid()) {
      return Datum::LargeObject(field.type_oid, LoRef{value.as_oid()});
    }
    if (value.is_int4()) {
      return Datum::LargeObject(field.type_oid,
                                LoRef{static_cast<Oid>(value.as_int4())});
    }
    return value;
  }
  if (value.is_text()) return tinfo->input(tinfo->oid, value.as_text());
  if (field.type_oid == type_oids::kFloat8 && value.is_int4()) {
    return Datum::Float8(value.as_int4());
  }
  return value;
}

namespace {
/// Aggregate functions recognized in retrieve target lists.
enum class AggKind { kNone, kCount, kSum, kMin, kMax, kAvg };

AggKind AggKindOf(const Expr& expr) {
  if (expr.kind != Expr::Kind::kFuncCall || expr.args.size() != 1) {
    return AggKind::kNone;
  }
  if (expr.func == "count") return AggKind::kCount;
  if (expr.func == "sum") return AggKind::kSum;
  if (expr.func == "min") return AggKind::kMin;
  if (expr.func == "max") return AggKind::kMax;
  if (expr.func == "avg") return AggKind::kAvg;
  return AggKind::kNone;
}

struct AggState {
  AggKind kind = AggKind::kNone;
  uint64_t count = 0;
  double sum = 0;
  bool all_int = true;
  bool has_best = false;
  Datum best;
};
}  // namespace

Result<QueryResult> Executor::ExecRetrieve(Transaction* txn,
                                           const Stmt& stmt) {
  // `as of N` runs the scan under a historical snapshot (§6.3's time
  // travel, POSTQUEL's EMP["epoch"]). The auxiliary transaction is
  // read-only and is always aborted (aborting a reader costs nothing).
  if (stmt.has_as_of && !suppress_as_of_) {
    Transaction* historical = ctx_.txns->BeginAsOf(stmt.as_of);
    suppress_as_of_ = true;
    Result<QueryResult> result = ExecRetrieve(historical, stmt);
    suppress_as_of_ = false;
    PGLO_RETURN_IF_ERROR(ctx_.txns->Abort(historical));
    return result;
  }
  PGLO_ASSIGN_OR_RETURN(std::string class_name, FindRangeClass(stmt));
  QueryResult result;
  // Column labels.
  for (size_t i = 0; i < stmt.targets.size(); ++i) {
    const Target& t = stmt.targets[i];
    if (!t.name.empty()) {
      result.columns.push_back(t.name);
    } else if (t.expr->kind == Expr::Kind::kFieldRef) {
      result.columns.push_back(t.expr->field);
    } else if (t.expr->kind == Expr::Kind::kFuncCall) {
      result.columns.push_back(t.expr->func);
    } else {
      result.columns.push_back("column" + std::to_string(i + 1));
    }
  }
  result.column_types.assign(stmt.targets.size(), kInvalidOid);

  // Aggregate mode: if any target is count/sum/min/max/avg(expr), all must
  // be, and the retrieve produces one summary row.
  std::vector<AggState> aggs(stmt.targets.size());
  bool aggregate_mode = false;
  {
    size_t n_agg = 0;
    for (size_t i = 0; i < stmt.targets.size(); ++i) {
      aggs[i].kind = AggKindOf(*stmt.targets[i].expr);
      if (aggs[i].kind != AggKind::kNone) ++n_agg;
    }
    if (n_agg > 0 && n_agg != stmt.targets.size()) {
      return Status::NotSupported(
          "mixing aggregates and plain targets is not supported");
    }
    aggregate_mode = n_agg > 0;
  }

  auto emit = [&](const RowContext& row) -> Status {
    if (aggregate_mode) {
      for (size_t i = 0; i < stmt.targets.size(); ++i) {
        PGLO_ASSIGN_OR_RETURN(
            Datum v, Eval(txn, *stmt.targets[i].expr->args[0], row));
        if (v.is_null()) continue;  // aggregates skip nulls
        AggState& agg = aggs[i];
        ++agg.count;
        switch (agg.kind) {
          case AggKind::kCount:
            break;
          case AggKind::kSum:
          case AggKind::kAvg: {
            PGLO_ASSIGN_OR_RETURN(double x, v.ToDouble());
            agg.sum += x;
            if (!v.is_int4()) agg.all_int = false;
            break;
          }
          case AggKind::kMin:
          case AggKind::kMax: {
            if (!agg.has_best) {
              agg.best = v;
              agg.has_best = true;
            } else {
              PGLO_ASSIGN_OR_RETURN(int cmp, CompareDatums(v, agg.best));
              if ((agg.kind == AggKind::kMin && cmp < 0) ||
                  (agg.kind == AggKind::kMax && cmp > 0)) {
                agg.best = v;
              }
            }
            break;
          }
          case AggKind::kNone:
            break;
        }
      }
      return Status::OK();
    }
    std::vector<Datum> out;
    out.reserve(stmt.targets.size());
    for (size_t i = 0; i < stmt.targets.size(); ++i) {
      PGLO_ASSIGN_OR_RETURN(Datum v, Eval(txn, *stmt.targets[i].expr, row));
      if (result.column_types[i] == kInvalidOid) {
        result.column_types[i] = v.type();
      }
      out.push_back(std::move(v));
    }
    result.rows.push_back(std::move(out));
    return Status::OK();
  };

  if (class_name.empty()) {
    // Constant query, e.g. `retrieve (result = newfilename())`.
    RowContext no_row;
    PGLO_ASSIGN_OR_RETURN(bool match,
                          Qualifies(txn, stmt.where.get(), no_row));
    if (match) PGLO_RETURN_IF_ERROR(emit(no_row));
  } else {
    PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, class_name));
    PGLO_RETURN_IF_ERROR(ForEachMatch(
        txn, cls, stmt.where.get(),
        [&](Tid, std::vector<Datum> row) -> Status {
          return emit(RowContext{&cls, &row});
        }));
  }

  if (aggregate_mode) {
    std::vector<Datum> summary;
    summary.reserve(aggs.size());
    for (AggState& agg : aggs) {
      switch (agg.kind) {
        case AggKind::kCount:
          summary.push_back(Datum::Int4(static_cast<int32_t>(agg.count)));
          break;
        case AggKind::kSum:
          if (agg.all_int && agg.sum >= INT32_MIN && agg.sum <= INT32_MAX) {
            summary.push_back(Datum::Int4(static_cast<int32_t>(agg.sum)));
          } else {
            summary.push_back(Datum::Float8(agg.sum));
          }
          break;
        case AggKind::kAvg:
          summary.push_back(agg.count == 0
                                ? Datum::Null(type_oids::kFloat8)
                                : Datum::Float8(agg.sum /
                                                static_cast<double>(
                                                    agg.count)));
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          summary.push_back(agg.has_best ? agg.best : Datum());
          break;
        case AggKind::kNone:
          break;
      }
    }
    for (size_t i = 0; i < summary.size(); ++i) {
      result.column_types[i] = summary[i].type();
    }
    result.rows.push_back(std::move(summary));
  }

  if (!stmt.into_class.empty()) {
    PGLO_RETURN_IF_ERROR(MaterializeInto(txn, stmt.into_class, &result));
  }
  result.affected = result.rows.size();
  return result;
}

Status Executor::MaterializeInto(Transaction* txn,
                                 const std::string& class_name,
                                 QueryResult* result) {
  // POSTQUEL's retrieve-into: create a class shaped like the result and
  // fill it. The schema is inferred from the first row's datum types, so
  // an empty result cannot be materialized.
  if (result->rows.empty()) {
    return Status::InvalidArgument(
        "retrieve into cannot infer a schema from an empty result");
  }
  if (LookupClass(txn, class_name).ok()) {
    return Status::AlreadyExists("class exists: " + class_name);
  }
  Stmt create;
  create.kind = Stmt::Kind::kCreateClass;
  create.class_name = class_name;
  for (size_t i = 0; i < result->columns.size(); ++i) {
    Oid type = result->rows[0][i].type();
    PGLO_ASSIGN_OR_RETURN(const TypeRegistry::TypeInfo* tinfo,
                          types_->ByOid(type));
    create.schema.emplace_back(result->columns[i], tinfo->name);
  }
  PGLO_RETURN_IF_ERROR(ExecCreateClass(txn, create).status());
  PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, class_name));
  HeapClass heap(ctx_.pool, cls.file);
  for (std::vector<Datum>& row : result->rows) {
    // Coerce per field (this is also what promotes temporary large
    // objects being persisted into the new class, §5).
    for (size_t i = 0; i < row.size(); ++i) {
      PGLO_ASSIGN_OR_RETURN(row[i],
                            CoerceForField(txn, cls.fields[i], row[i]));
    }
    PGLO_RETURN_IF_ERROR(heap.Insert(txn, Slice(EncodeRow(row))).status());
  }
  return Status::OK();
}

Result<QueryResult> Executor::ExecReplace(Transaction* txn,
                                          const Stmt& stmt) {
  PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, stmt.class_name));
  // Materialize matches first so the scan does not chase its own updates.
  std::vector<std::pair<Tid, std::vector<Datum>>> matches;
  PGLO_RETURN_IF_ERROR(ForEachMatch(
      txn, cls, stmt.where.get(),
      [&](Tid tid, std::vector<Datum> row) -> Status {
        matches.emplace_back(tid, std::move(row));
        return Status::OK();
      }));
  HeapClass heap(ctx_.pool, cls.file);
  for (auto& [tid, row] : matches) {
    RowContext rctx{&cls, &row};
    std::vector<Datum> updated = row;
    for (const Assignment& a : stmt.assignments) {
      PGLO_ASSIGN_OR_RETURN(size_t idx, cls.FieldIndex(a.field));
      PGLO_ASSIGN_OR_RETURN(Datum value, Eval(txn, *a.expr, rctx));
      PGLO_ASSIGN_OR_RETURN(updated[idx],
                            CoerceForField(txn, cls.fields[idx], value));
    }
    PGLO_ASSIGN_OR_RETURN(Tid new_tid,
                          heap.Update(txn, tid, Slice(EncodeRow(updated))));
    PGLO_RETURN_IF_ERROR(MaintainIndexes(txn, cls, updated, new_tid));
  }
  QueryResult result;
  result.affected = matches.size();
  return result;
}

Result<QueryResult> Executor::ExecDelete(Transaction* txn, const Stmt& stmt) {
  PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, stmt.class_name));
  std::vector<Tid> doomed;
  PGLO_RETURN_IF_ERROR(ForEachMatch(txn, cls, stmt.where.get(),
                                    [&](Tid tid, std::vector<Datum>) {
                                      doomed.push_back(tid);
                                      return Status::OK();
                                    }));
  HeapClass heap(ctx_.pool, cls.file);
  for (Tid tid : doomed) {
    PGLO_RETURN_IF_ERROR(heap.Delete(txn, tid));
  }
  QueryResult result;
  result.affected = doomed.size();
  return result;
}

Result<QueryResult> Executor::ExecDestroy(Transaction* txn,
                                          const Stmt& stmt) {
  // Remove the catalog rows of the class and of its indexes (MVCC — the
  // class data and its indexes stay reachable through time travel; no file
  // is physically dropped here).
  PGLO_ASSIGN_OR_RETURN(auto row, FindClassRow(txn, stmt.class_name));
  PGLO_RETURN_IF_ERROR(catalog_.Delete(txn, row.first));
  PGLO_ASSIGN_OR_RETURN(std::vector<IndexCatalog::IndexInfo> infos,
                        indexes_.ForClass(txn, stmt.class_name));
  for (const IndexCatalog::IndexInfo& info : infos) {
    PGLO_RETURN_IF_ERROR(indexes_.Remove(txn, info.name));
  }
  QueryResult result;
  result.affected = 1;
  return result;
}

Result<QueryResult> Executor::ExecDefineIndex(Transaction* txn,
                                              const Stmt& stmt) {
  PGLO_ASSIGN_OR_RETURN(ClassInfo cls, LookupClass(txn, stmt.class_name));
  PGLO_ASSIGN_OR_RETURN(size_t field, cls.FieldIndex(stmt.index_field));
  PGLO_ASSIGN_OR_RETURN(IndexCatalog::IndexInfo info,
                        indexes_.Define(txn, stmt.index_name,
                                        stmt.class_name, stmt.index_field));
  // Back-fill from the class's visible rows (affected = rows scanned).
  IndexedClass index = OpenIndex(cls, info.btree_file, field);
  QueryResult result;
  PGLO_RETURN_IF_ERROR(ForEachMatch(
      txn, cls, /*where=*/nullptr,
      [&](Tid tid, std::vector<Datum> row) -> Status {
        ++result.affected;
        PGLO_ASSIGN_OR_RETURN(std::optional<uint64_t> key,
                              FieldKey(row[field]));
        return key ? index.AddEntry(*key, tid) : Status::OK();
      }));
  return result;
}

Result<QueryResult> Executor::ExecRemoveIndex(Transaction* txn,
                                              const Stmt& stmt) {
  PGLO_RETURN_IF_ERROR(indexes_.Remove(txn, stmt.index_name));
  QueryResult result;
  result.affected = 1;
  return result;
}

Result<QueryResult> Executor::Execute(Transaction* txn, const Stmt& stmt) {
  switch (stmt.kind) {
    case Stmt::Kind::kCreateClass:
      return ExecCreateClass(txn, stmt);
    case Stmt::Kind::kCreateLargeType:
      return ExecCreateLargeType(txn, stmt);
    case Stmt::Kind::kAppend:
      return ExecAppend(txn, stmt);
    case Stmt::Kind::kRetrieve:
      return ExecRetrieve(txn, stmt);
    case Stmt::Kind::kReplace:
      return ExecReplace(txn, stmt);
    case Stmt::Kind::kDelete:
      return ExecDelete(txn, stmt);
    case Stmt::Kind::kDestroy:
      return ExecDestroy(txn, stmt);
    case Stmt::Kind::kDefineIndex:
      return ExecDefineIndex(txn, stmt);
    case Stmt::Kind::kRemoveIndex:
      return ExecRemoveIndex(txn, stmt);
  }
  return Status::Internal("unreachable statement kind");
}

Result<std::string> QueryResult::ToString(const TypeRegistry& types) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i];
  }
  if (!columns.empty()) out += "\n";
  for (const std::vector<Datum>& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += " | ";
      if (row[i].is_null()) {
        out += "(null)";
        continue;
      }
      Result<const TypeRegistry::TypeInfo*> tinfo = types.ByOid(row[i].type());
      if (tinfo.ok() && tinfo.value()->output) {
        PGLO_ASSIGN_OR_RETURN(std::string text, tinfo.value()->output(row[i]));
        out += text;
      } else {
        out += "(?)";
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace query
}  // namespace pglo

#ifndef PGLO_QUERY_EXECUTOR_H_
#define PGLO_QUERY_EXECUTOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "db/context.h"
#include "heap/heap_class.h"
#include "lo/indexed_class.h"
#include "lo/lo_manager.h"
#include "query/ast.h"
#include "query/secondary_index.h"
#include "types/fmgr.h"
#include "types/type_registry.h"

namespace pglo {
namespace query {

/// Result of a retrieve (other statements report affected-row counts).
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Oid> column_types;
  std::vector<std::vector<Datum>> rows;
  uint64_t affected = 0;

  /// Renders a plain-text table using the types' output routines.
  Result<std::string> ToString(const TypeRegistry& types) const;
};

/// Executes parsed statements against the database: class catalog
/// maintenance, heap scans with qualification, function-manager dispatch,
/// and the large-ADT conveniences of §4/§5 (file-path literals for u-file
/// fields, automatic promotion of temporary large objects stored into a
/// class).
class Executor {
 public:
  Executor(const DbContext& ctx, LoManager* lo, TypeRegistry* types,
           FunctionRegistry* fns);

  /// Creates the class catalog on first use (idempotent).
  Status Bootstrap();

  Result<QueryResult> Execute(Transaction* txn, const Stmt& stmt);

  /// Schema lookup, exposed for tests and the session layer.
  struct FieldInfo {
    std::string name;
    std::string type_name;
    Oid type_oid = kInvalidOid;
  };
  struct ClassInfo {
    std::string name;
    RelFileId file;
    std::vector<FieldInfo> fields;
    Result<size_t> FieldIndex(const std::string& field) const;
  };
  Result<ClassInfo> LookupClass(Transaction* txn, const std::string& name);

 private:
  struct RowContext {
    const ClassInfo* cls = nullptr;
    const std::vector<Datum>* row = nullptr;
  };

  /// The class catalog row named `name` that `txn` sees: its address and
  /// its record. NotFound when there is none.
  Result<std::pair<Tid, Bytes>> FindClassRow(Transaction* txn,
                                             const std::string& name);

  Result<QueryResult> ExecCreateClass(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecCreateLargeType(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecAppend(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecRetrieve(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecReplace(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecDelete(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecDestroy(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecDefineIndex(Transaction* txn, const Stmt& stmt);
  Result<QueryResult> ExecRemoveIndex(Transaction* txn, const Stmt& stmt);

  /// retrieve-into: creates `class_name` shaped like `result` and inserts
  /// the rows (coerced per field).
  Status MaterializeInto(Transaction* txn, const std::string& class_name,
                         QueryResult* result);

  /// Files a newly stored row version at `tid` in every index of `cls`.
  Status MaintainIndexes(Transaction* txn, const ClassInfo& cls,
                         const std::vector<Datum>& row, Tid tid);

  /// Opens the index in `btree_file` on field `field` of `cls` as an
  /// IndexedClass over the class heap.
  IndexedClass OpenIndex(const ClassInfo& cls, RelFileId btree_file,
                         size_t field);

  /// An index key range that holds every row a qualification can accept.
  struct IndexPlan {
    RelFileId btree_file;
    size_t field = 0;
    uint64_t low = 0;
    uint64_t high = ~0ull;
  };
  /// When a top-level conjunct compares an indexed field with a constant
  /// (equality first, then range bounds), the index range to scan instead
  /// of the heap; nullopt otherwise.
  Result<std::optional<IndexPlan>> PlanIndexScan(Transaction* txn,
                                                 const ClassInfo& cls,
                                                 const Expr* where);

  /// Whether `where` (null = no qualification) accepts `row`;
  /// InvalidArgument when it does not evaluate to a boolean.
  Result<bool> Qualifies(Transaction* txn, const Expr* where,
                         const RowContext& row);

  using RowVisitor = std::function<Status(Tid tid, std::vector<Datum> row)>;
  /// The one way the executor finds a class's rows: visits every row of
  /// `cls` that `txn` sees and `where` accepts, through an index range
  /// when PlanIndexScan finds one and by a heap scan otherwise. Either way
  /// the full qualification is rechecked on each row.
  Status ForEachMatch(Transaction* txn, const ClassInfo& cls,
                      const Expr* where, const RowVisitor& visit);

  Result<Datum> Eval(Transaction* txn, const Expr& expr,
                     const RowContext& row);
  Result<Datum> EvalBinary(Transaction* txn, const Expr& expr,
                           const RowContext& row);
  Result<Datum> EvalCast(Transaction* txn, const Expr& expr,
                         const RowContext& row);

  /// Coerces a constant the way CoerceForField would, but without side
  /// effects (no object creation/promotion) — used to build index keys
  /// that match stored values.
  Result<Datum> CoerceForLookup(Transaction* txn, const FieldInfo& field,
                                Datum value);

  /// Coerces an evaluated value into field `field` of a class — this is
  /// where a text literal becomes a u-file large object (§6.1's
  /// `append EMP (..., picture = "/usr/joe")`) and where temporary large
  /// objects stored into a class are promoted to permanence.
  Result<Datum> CoerceForField(Transaction* txn, const FieldInfo& field,
                               Datum value);

  /// Which single class does this statement range over? Derived from the
  /// explicit class (append/replace/delete) or the field references
  /// (retrieve).
  Result<std::string> FindRangeClass(const Stmt& stmt) const;
  static void CollectClasses(const Expr& expr,
                             std::vector<std::string>* out);

  static Bytes EncodeRow(const std::vector<Datum>& row);
  Result<std::vector<Datum>> DecodeRow(const ClassInfo& cls, Slice image);

  FunctionContext MakeFunctionContext(Transaction* txn);

  DbContext ctx_;
  LoManager* lo_;
  TypeRegistry* types_;
  FunctionRegistry* fns_;
  HeapClass catalog_;
  IndexCatalog indexes_;
  /// Re-entrancy guard for the `as of` clause (the historical re-execution
  /// must run the same Stmt without re-entering the time-travel branch).
  bool suppress_as_of_ = false;
};

}  // namespace query
}  // namespace pglo

#endif  // PGLO_QUERY_EXECUTOR_H_

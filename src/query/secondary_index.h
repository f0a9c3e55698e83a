#ifndef PGLO_QUERY_SECONDARY_INDEX_H_
#define PGLO_QUERY_SECONDARY_INDEX_H_

#include <optional>
#include <string>
#include <vector>

#include "db/context.h"
#include "heap/heap_class.h"
#include "types/datum.h"

namespace pglo {
namespace query {

/// Secondary (B-tree) indexes over class fields.
///
/// §3 motivates large ADTs partly because "indexing BLOBs can also be
/// supported" once values live inside the DBMS. `define index <name> on
/// <Class> (<field>)` builds a B-tree over an order-preserving 64-bit
/// encoding of the field. This catalog keeps only the definitions; the
/// executor opens each index as an IndexedClass over (class heap, index
/// B-tree), whose key-of-record is EncodeKey of the decoded row's field,
/// files entries as rows are appended and replaced, and scans it for
/// equality and range qualifications.
///
/// IndexedClass applies the one stale-entry rule (a row counts for an
/// entry only when it is visible and filed under the entry's key). The
/// encoding truncates text to an 8-byte prefix, so an index scan is still
/// a superset filter: the executor re-evaluates the full qualification on
/// every row it visits.
class IndexCatalog {
 public:
  struct IndexInfo {
    std::string name;
    std::string class_name;
    std::string field;
    RelFileId btree_file;
  };

  explicit IndexCatalog(const DbContext& ctx);

  /// Creates the index catalog class on first use (idempotent).
  Status Bootstrap();

  /// Creates an empty B-tree and records the definition; the caller
  /// back-fills it from the class's visible rows.
  Result<IndexInfo> Define(Transaction* txn, const std::string& index_name,
                           const std::string& class_name,
                           const std::string& field);

  /// Removes the index definition (the B-tree file is reclaimed lazily).
  Status Remove(Transaction* txn, const std::string& index_name);

  /// All indexes defined on `class_name` (visible to `txn`).
  Result<std::vector<IndexInfo>> ForClass(Transaction* txn,
                                          const std::string& class_name);

  /// Order-preserving 64-bit key for an indexable datum; NotSupported for
  /// datum kinds that cannot be indexed (null handled by callers).
  static Result<uint64_t> EncodeKey(const Datum& value);

 private:
  /// The address of the definition named `index_name` that `txn` sees.
  Result<std::optional<Tid>> Find(Transaction* txn,
                                  const std::string& index_name);

  DbContext ctx_;
  HeapClass catalog_;
};

}  // namespace query
}  // namespace pglo

#endif  // PGLO_QUERY_SECONDARY_INDEX_H_

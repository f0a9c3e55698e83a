#ifndef PGLO_QUERY_SESSION_H_
#define PGLO_QUERY_SESSION_H_

#include <memory>
#include <string>

#include "db/database.h"
#include "query/executor.h"

namespace pglo {
namespace query {

/// A query-language session against a Database: parses POSTQUEL-like text,
/// runs it, and returns rows.
///
/// The session owns the in-process type and function registries (types and
/// functions were "dynamically loaded" per backend in POSTGRES; here they
/// are re-registered per session — persistent state lives in the class
/// catalog and the heaps) and one backend connection for auto-commit.
/// Destroy it before the Database.
class Session {
 public:
  explicit Session(Database* db);

  /// Runs statements in their own transaction (auto-commit). Multiple
  /// ';'-separated statements share one transaction; the result of the
  /// last statement is returned.
  Result<QueryResult> Run(const std::string& text);

  /// Runs statements under a caller-managed transaction, e.g. one from
  /// another backend's pglo::Session::BeginAsOf(t) for time-travel queries.
  Result<QueryResult> Run(Transaction* txn, const std::string& text);

  TypeRegistry& types() { return types_; }
  FunctionRegistry& functions() { return fns_; }
  Executor& executor() { return executor_; }

 private:
  std::unique_ptr<pglo::Session> backend_;
  TypeRegistry types_;
  FunctionRegistry fns_;
  Executor executor_;
};

}  // namespace query
}  // namespace pglo

#endif  // PGLO_QUERY_SESSION_H_

#include "query/session.h"

#include "common/logging.h"
#include "query/parser.h"

namespace pglo {
namespace query {

Session::Session(Database* db)
    : backend_(db->Connect()),
      types_(&db->oids()),
      executor_(db->context(), &db->large_objects(), &types_, &fns_) {
  RegisterBuiltinFunctions(&fns_);
  Status s = executor_.Bootstrap();
  if (!s.ok()) {
    PGLO_LOG(Error) << "query catalog bootstrap failed: " << s.ToString();
  }
}

Result<QueryResult> Session::Run(Transaction* txn, const std::string& text) {
  PGLO_ASSIGN_OR_RETURN(std::vector<Stmt> stmts, Parser::Parse(text));
  QueryResult last;
  for (const Stmt& stmt : stmts) {
    PGLO_ASSIGN_OR_RETURN(last, executor_.Execute(txn, stmt));
  }
  return last;
}

Result<QueryResult> Session::Run(const std::string& text) {
  Result<QueryResult> result = Run(backend_->Begin(), text);
  Status end = result.ok() ? backend_->Commit().status() : Status::OK();
  if (backend_->in_txn()) {
    Status abort_status = backend_->Abort();
    (void)abort_status;
  }
  if (!end.ok()) return end;
  return result;
}

}  // namespace query
}  // namespace pglo

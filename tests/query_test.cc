#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "db/database.h"
#include "query/parser.h"
#include "query/secondary_index.h"
#include "query/session.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;
using query::Parser;
using query::QueryResult;
using query::Session;
using query::Stmt;

// ---------------------------------------------------------------------------
// Parser

TEST(ParserTest, CreateClass) {
  ASSERT_OK_AND_ASSIGN(auto stmts,
                       Parser::Parse("create EMP (name = text, age = int4)"));
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0].kind, Stmt::Kind::kCreateClass);
  EXPECT_EQ(stmts[0].class_name, "EMP");
  ASSERT_EQ(stmts[0].schema.size(), 2u);
  EXPECT_EQ(stmts[0].schema[0].first, "name");
  EXPECT_EQ(stmts[0].schema[0].second, "text");
}

TEST(ParserTest, CreateClassWithStorageClause) {
  ASSERT_OK_AND_ASSIGN(
      auto stmts, Parser::Parse("create T (x = int4) storage = \"worm\""));
  EXPECT_EQ(stmts[0].storage_manager, "worm");
}

TEST(ParserTest, CreateLargeType) {
  // Verbatim shape from §4 of the paper.
  ASSERT_OK_AND_ASSIGN(
      auto stmts,
      Parser::Parse("create large type image (input = lzss, output = lzss, "
                    "storage = v-segment)"));
  ASSERT_EQ(stmts.size(), 1u);
  EXPECT_EQ(stmts[0].kind, Stmt::Kind::kCreateLargeType);
  EXPECT_EQ(stmts[0].class_name, "image");
  EXPECT_EQ(stmts[0].input_fn, "lzss");
  EXPECT_EQ(stmts[0].output_fn, "lzss");
  EXPECT_EQ(stmts[0].storage_kind, "v-segment");
}

TEST(ParserTest, AppendWithLiterals) {
  ASSERT_OK_AND_ASSIGN(
      auto stmts,
      Parser::Parse("append EMP (name = \"Joe\", picture = \"/usr/joe\")"));
  EXPECT_EQ(stmts[0].kind, Stmt::Kind::kAppend);
  ASSERT_EQ(stmts[0].assignments.size(), 2u);
  EXPECT_EQ(stmts[0].assignments[0].field, "name");
}

TEST(ParserTest, RetrieveWithQual) {
  // The paper's §4 example.
  ASSERT_OK_AND_ASSIGN(
      auto stmts,
      Parser::Parse("retrieve (EMP.picture) where EMP.name = \"Joe\""));
  EXPECT_EQ(stmts[0].kind, Stmt::Kind::kRetrieve);
  ASSERT_EQ(stmts[0].targets.size(), 1u);
  EXPECT_EQ(stmts[0].targets[0].expr->kind, query::Expr::Kind::kFieldRef);
  EXPECT_EQ(stmts[0].targets[0].expr->class_name, "EMP");
  EXPECT_EQ(stmts[0].targets[0].expr->field, "picture");
  ASSERT_NE(stmts[0].where, nullptr);
  EXPECT_EQ(stmts[0].where->func, "=");
}

TEST(ParserTest, RetrieveFunctionCallWithCast) {
  // The paper's §5 example.
  ASSERT_OK_AND_ASSIGN(
      auto stmts,
      Parser::Parse("retrieve (clip(EMP.picture, \"0,0,20,20\"::rect)) "
                    "where EMP.name = \"Mike\""));
  const auto& target = *stmts[0].targets[0].expr;
  EXPECT_EQ(target.kind, query::Expr::Kind::kFuncCall);
  EXPECT_EQ(target.func, "clip");
  ASSERT_EQ(target.args.size(), 2u);
  EXPECT_EQ(target.args[1]->kind, query::Expr::Kind::kCast);
  EXPECT_EQ(target.args[1]->cast_type, "rect");
}

TEST(ParserTest, NamedTarget) {
  // §6.2: retrieve (result = newfilename()).
  ASSERT_OK_AND_ASSIGN(auto stmts,
                       Parser::Parse("retrieve (result = newfilename())"));
  EXPECT_EQ(stmts[0].targets[0].name, "result");
  EXPECT_EQ(stmts[0].targets[0].expr->kind, query::Expr::Kind::kFuncCall);
}

TEST(ParserTest, OperatorPrecedence) {
  ASSERT_OK_AND_ASSIGN(auto stmts,
                       Parser::Parse("retrieve (1 + 2 * 3 - 4)"));
  // ((1 + (2*3)) - 4)
  const auto& e = *stmts[0].targets[0].expr;
  EXPECT_EQ(e.func, "-");
  EXPECT_EQ(e.args[0]->func, "+");
  EXPECT_EQ(e.args[0]->args[1]->func, "*");
}

TEST(ParserTest, BooleanPrecedence) {
  ASSERT_OK_AND_ASSIGN(
      auto stmts,
      Parser::Parse("retrieve (x) where a = 1 or b = 2 and c = 3"));
  EXPECT_EQ(stmts[0].where->func, "or");
  EXPECT_EQ(stmts[0].where->args[1]->func, "and");
}

TEST(ParserTest, MultipleStatements) {
  ASSERT_OK_AND_ASSIGN(
      auto stmts, Parser::Parse("create A (x = int4); append A (x = 1)"));
  EXPECT_EQ(stmts.size(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parser::Parse("").ok());
  EXPECT_FALSE(Parser::Parse("frobnicate EMP").ok());
  EXPECT_FALSE(Parser::Parse("create EMP name = text)").ok());
  EXPECT_FALSE(Parser::Parse("retrieve (EMP.name").ok());
  EXPECT_FALSE(Parser::Parse("append EMP (name = )").ok());
  EXPECT_FALSE(Parser::Parse("retrieve (\"unterminated)").ok());
}

// ---------------------------------------------------------------------------
// End-to-end query execution

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.charge_devices = false;
    options.buffer_pool_frames = 128;
    ASSERT_OK(db_.Open(options));
    session_ = std::make_unique<Session>(&db_);
    backend_ = db_.Connect();
  }

  QueryResult Run(const std::string& text) {
    Result<QueryResult> result = session_->Run(text);
    EXPECT_TRUE(result.ok())
        << "query: " << text << "\nstatus: " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult{};
  }

  TempDir dir_;
  Database db_;
  std::unique_ptr<Session> session_;
  /// For tests that drive a transaction of their own.
  std::unique_ptr<pglo::Session> backend_;
};

TEST_F(QueryTest, CreateAppendRetrieve) {
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"Joe\", age = 30)");
  Run("append EMP (name = \"Sam\", age = 40)");
  QueryResult result = Run("retrieve (EMP.name, EMP.age)");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.columns[0], "name");
  EXPECT_EQ(result.rows[0][0].as_text(), "Joe");
  EXPECT_EQ(result.rows[0][1].as_int4(), 30);
}

TEST_F(QueryTest, WhereQualFilters) {
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"Joe\", age = 30)");
  Run("append EMP (name = \"Sam\", age = 40)");
  QueryResult result =
      Run("retrieve (EMP.age) where EMP.name = \"Sam\"");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_int4(), 40);
  result = Run("retrieve (EMP.name) where EMP.age > 25 and EMP.age < 35");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_text(), "Joe");
}

TEST_F(QueryTest, ReplaceAndDelete) {
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"Joe\", age = 30)");
  Run("append EMP (name = \"Sam\", age = 40)");
  QueryResult result =
      Run("replace EMP (age = 31) where EMP.name = \"Joe\"");
  EXPECT_EQ(result.affected, 1u);
  result = Run("retrieve (EMP.age) where EMP.name = \"Joe\"");
  EXPECT_EQ(result.rows[0][0].as_int4(), 31);
  result = Run("delete EMP where EMP.name = \"Sam\"");
  EXPECT_EQ(result.affected, 1u);
  result = Run("retrieve (EMP.name)");
  EXPECT_EQ(result.rows.size(), 1u);
}

TEST_F(QueryTest, ArithmeticAndConstants) {
  QueryResult result = Run("retrieve (answer = 6 * 7)");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.columns[0], "answer");
  EXPECT_EQ(result.rows[0][0].as_int4(), 42);
  result = Run("retrieve (x = 10 / 4, y = 10.0 / 4)");
  EXPECT_EQ(result.rows[0][0].as_int4(), 2);
  EXPECT_DOUBLE_EQ(result.rows[0][1].as_float8(), 2.5);
}

TEST_F(QueryTest, DivisionByZeroFails) {
  EXPECT_FALSE(session_->Run("retrieve (1 / 0)").ok());
}

TEST_F(QueryTest, NewFileNameFunction) {
  // §6.2's extra step: retrieve (result = newfilename()).
  QueryResult result = Run("retrieve (result = newfilename())");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0].as_text().rfind("pg_lo_", 0), 0u);
}

TEST_F(QueryTest, CreateLargeTypeAndUseItInAClass) {
  Run("create large type image (input = none, output = none, "
      "storage = f-chunk)");
  Run("create EMP (name = text, picture = image)");
  // Assigning an integer-valued expression (a large object name) works;
  // assigning via lo_create makes a fresh object.
  Run("append EMP (name = \"Joe\", picture = lo_create(\"f-chunk\"))");
  QueryResult result =
      Run("retrieve (EMP.picture) where EMP.name = \"Joe\"");
  ASSERT_EQ(result.rows.size(), 1u);
  ASSERT_TRUE(result.rows[0][0].is_lo());
  // The returned large object name is open-able through the API (§4).
  Oid lo_oid = result.rows[0][0].as_lo().oid;
  Transaction* txn = backend_->Begin();
  ASSERT_OK(db_.large_objects().Open(txn, lo_oid, false).status());
  ASSERT_OK(backend_->Abort());
}

TEST_F(QueryTest, UfileLargeTypeAcceptsPathLiteral) {
  // §6.1: append EMP (name = "Joe", picture = "/usr/joe").
  Run("create large type ufile_image (input = none, output = none, "
      "storage = u-file)");
  Run("create EMP (name = text, picture = ufile_image)");
  Run("append EMP (name = \"Joe\", picture = \"usr_joe\")");
  QueryResult result =
      Run("retrieve (EMP.picture) where EMP.name = \"Joe\"");
  ASSERT_EQ(result.rows.size(), 1u);
  // The named file now exists in the simulated UNIX file system.
  ASSERT_OK(db_.ufs().Lookup("usr_joe").status());
}

TEST_F(QueryTest, LoReadWriteThroughQueries) {
  Run("create large type blob (input = none, output = none, "
      "storage = f-chunk)");
  Run("create DOC (title = text, body = blob)");
  Run("append DOC (title = \"a\", body = lo_create(\"f-chunk\"))");
  QueryResult result = Run("retrieve (DOC.body) where DOC.title = \"a\"");
  Oid oid = result.rows[0][0].as_lo().oid;
  Run("retrieve (lo_write(" + std::to_string(oid) +
      ", 0, \"stored via query\"))");
  result = Run("retrieve (lo_read(DOC.body, 0, 6)) where DOC.title = \"a\"");
  EXPECT_EQ(result.rows[0][0].as_text(), "stored");
  result = Run("retrieve (lo_size(DOC.body)) where DOC.title = \"a\"");
  EXPECT_EQ(result.rows[0][0].as_int4(), 16);
}

TEST_F(QueryTest, ClipExampleEndToEnd) {
  // The full §5 scenario: clip() runs inside the data manager, returns a
  // temporary large object, and storing it into a class promotes it.
  Run("create large type image (input = rle, output = rle, "
      "storage = f-chunk)");
  Run("create EMP (name = text, picture = image)");
  Run("append EMP (name = \"Mike\", picture = lo_create(\"f-chunk\"))");

  // Build a 64x64 gradient image through the API.
  QueryResult result =
      Run("retrieve (EMP.picture) where EMP.name = \"Mike\"");
  Oid img = result.rows[0][0].as_lo().oid;
  {
    Transaction* txn = backend_->Begin();
    ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, img));
    Bytes image(8 + 64 * 64);
    EncodeFixed32(image.data(), 64);
    EncodeFixed32(image.data() + 4, 64);
    for (int y = 0; y < 64; ++y) {
      for (int x = 0; x < 64; ++x) {
        image[8 + y * 64 + x] = static_cast<uint8_t>(x + y);
      }
    }
    ASSERT_OK(lo->Write(txn, 0, Slice(image)));
    ASSERT_OK(backend_->Commit().status());
  }

  // The paper's query, §5 verbatim (modulo string quoting).
  result = Run(
      "retrieve (clip(EMP.picture, \"0,0,20,20\"::rect)) "
      "where EMP.name = \"Mike\"");
  ASSERT_EQ(result.rows.size(), 1u);
  ASSERT_TRUE(result.rows[0][0].is_lo());
  Oid clipped = result.rows[0][0].as_lo().oid;

  // The result was a temporary object; the query transaction has
  // committed, so §5's garbage collection has already reclaimed it.
  Transaction* txn = backend_->Begin();
  ASSERT_OK_AND_ASSIGN(bool exists, db_.large_objects().Exists(txn, clipped));
  EXPECT_FALSE(exists);
  ASSERT_OK(backend_->Abort());

  // Run the clip again but store the result into a class: the temporary
  // gets promoted and survives.
  Run("create CROPPED (name = text, thumb = image)");
  Run("append CROPPED (name = \"Mike\", thumb = "
      "clip(\"" + std::to_string(img) + "\"::image, \"4,4,16,16\"::rect))");
  result = Run("retrieve (CROPPED.thumb) where CROPPED.name = \"Mike\"");
  Oid thumb = result.rows[0][0].as_lo().oid;
  txn = backend_->Begin();
  ASSERT_OK_AND_ASSIGN(exists, db_.large_objects().Exists(txn, thumb));
  EXPECT_TRUE(exists);
  // And the clipped pixels match the source region.
  ASSERT_OK_AND_ASSIGN(auto lo, db_.large_objects().Instantiate(txn, thumb));
  uint8_t header[8];
  ASSERT_OK(lo->Read(txn, 0, 8, header).status());
  EXPECT_EQ(DecodeFixed32(header), 16u);
  EXPECT_EQ(DecodeFixed32(header + 4), 16u);
  uint8_t pixel;
  ASSERT_OK(lo->Read(txn, 8, 1, &pixel).status());  // (4,4) of the source
  EXPECT_EQ(pixel, 8);
  ASSERT_OK(backend_->Abort());
}

TEST_F(QueryTest, ImageDimensionFunctions) {
  Run("create large type image (input = none, output = none, "
      "storage = f-chunk)");
  QueryResult created = Run("retrieve (img = lo_create(\"f-chunk\"))");
  Oid img = created.rows[0][0].as_oid();
  {
    Transaction* txn = backend_->Begin();
    auto lo = db_.large_objects().Instantiate(txn, img).value();
    Bytes image(8 + 10 * 20);
    EncodeFixed32(image.data(), 20);
    EncodeFixed32(image.data() + 4, 10);
    ASSERT_OK(lo->Write(txn, 0, Slice(image)));
    ASSERT_OK(backend_->Commit().status());
  }
  QueryResult result = Run("retrieve (w = image_width(" +
                           std::to_string(img) + "), h = image_height(" +
                           std::to_string(img) + "))");
  EXPECT_EQ(result.rows[0][0].as_int4(), 20);
  EXPECT_EQ(result.rows[0][1].as_int4(), 10);
}

TEST_F(QueryTest, DestroyClassHidesIt) {
  Run("create T (x = int4)");
  Run("append T (x = 1)");
  Run("destroy T");
  EXPECT_FALSE(session_->Run("retrieve (T.x)").ok());
  // Recreate with the same name.
  Run("create T (x = int4)");
  QueryResult result = Run("retrieve (T.x)");
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(QueryTest, TimeTravelQuery) {
  Run("create EMP (name = text)");
  Run("append EMP (name = \"old guard\")");
  CommitTime before = db_.Now();
  Run("delete EMP where EMP.name = \"old guard\"");
  Run("append EMP (name = \"new hire\")");

  // Current view.
  QueryResult now = Run("retrieve (EMP.name)");
  ASSERT_EQ(now.rows.size(), 1u);
  EXPECT_EQ(now.rows[0][0].as_text(), "new hire");

  // Historical view through an as-of transaction.
  Transaction* historical = backend_->BeginAsOf(before);
  ASSERT_OK_AND_ASSIGN(QueryResult then,
                       session_->Run(historical, "retrieve (EMP.name)"));
  ASSERT_EQ(then.rows.size(), 1u);
  EXPECT_EQ(then.rows[0][0].as_text(), "old guard");
  ASSERT_OK(backend_->Abort());
}

TEST(IndexKeyTest, EncodingPreservesOrder) {
  using query::IndexCatalog;
  // int4 ordering across the sign boundary.
  int32_t ints[] = {INT32_MIN, -5, -1, 0, 1, 7, INT32_MAX};
  for (size_t i = 1; i < std::size(ints); ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t a,
                         IndexCatalog::EncodeKey(Datum::Int4(ints[i - 1])));
    ASSERT_OK_AND_ASSIGN(uint64_t b,
                         IndexCatalog::EncodeKey(Datum::Int4(ints[i])));
    EXPECT_LT(a, b) << ints[i - 1] << " vs " << ints[i];
  }
  // float8 ordering, both signs.
  double floats[] = {-1e300, -2.5, -0.0, 0.5, 3.25, 1e300};
  for (size_t i = 1; i < std::size(floats); ++i) {
    ASSERT_OK_AND_ASSIGN(
        uint64_t a, IndexCatalog::EncodeKey(Datum::Float8(floats[i - 1])));
    ASSERT_OK_AND_ASSIGN(uint64_t b,
                         IndexCatalog::EncodeKey(Datum::Float8(floats[i])));
    EXPECT_LT(a, b) << floats[i - 1] << " vs " << floats[i];
  }
  // text prefix ordering.
  const char* texts[] = {"", "a", "ab", "abc", "b", "zz"};
  for (size_t i = 1; i < std::size(texts); ++i) {
    ASSERT_OK_AND_ASSIGN(uint64_t a,
                         IndexCatalog::EncodeKey(Datum::Text(texts[i - 1])));
    ASSERT_OK_AND_ASSIGN(uint64_t b,
                         IndexCatalog::EncodeKey(Datum::Text(texts[i])));
    EXPECT_LE(a, b);
  }
  // Long texts sharing an 8-byte prefix collide — allowed (superset
  // filter), equal keys.
  ASSERT_OK_AND_ASSIGN(uint64_t p1, IndexCatalog::EncodeKey(
                                        Datum::Text("prefix12_AAA")));
  ASSERT_OK_AND_ASSIGN(uint64_t p2, IndexCatalog::EncodeKey(
                                        Datum::Text("prefix12_BBB")));
  EXPECT_EQ(p1, p2);
  // Unindexable kind.
  EXPECT_TRUE(IndexCatalog::EncodeKey(Datum::Rect({1, 2, 3, 4}))
                  .status()
                  .IsNotSupported());
}

TEST_F(QueryTest, IndexSurvivesRestart) {
  Run("create EMP (name = text)");
  Run("define index emp_name on EMP (name)");
  Run("append EMP (name = \"Joe\")");
  ASSERT_OK(db_.SimulateCrashAndReopen());
  query::Session session2(&db_);
  ASSERT_OK_AND_ASSIGN(
      QueryResult r,
      session2.Run("retrieve (EMP.name) where EMP.name = \"Joe\""));
  ASSERT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryTest, UnassignedFieldsAreNull) {
  Run("create T (x = int4, y = int4)");
  Run("append T (x = 1)");  // y left null
  Run("append T (x = 2, y = 20)");
  // Null never satisfies an equality qual.
  QueryResult r = Run("retrieve (T.x) where T.y = 20");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int4(), 2);
  // Aggregates skip nulls.
  r = Run("retrieve (count(T.y), count(T.x))");
  EXPECT_EQ(r.rows[0][0].as_int4(), 1);
  EXPECT_EQ(r.rows[0][1].as_int4(), 2);
  // Null renders as (null).
  r = Run("retrieve (T.y)");
  ASSERT_OK_AND_ASSIGN(std::string text, r.ToString(session_->types()));
  EXPECT_NE(text.find("(null)"), std::string::npos);
}

TEST_F(QueryTest, NegativeAndFloatLiterals) {
  Run("create T (x = int4, f = float8)");
  Run("append T (x = -5, f = -2.5)");
  QueryResult r = Run("retrieve (T.x, T.f) where T.x = -5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int4(), -5);
  EXPECT_DOUBLE_EQ(r.rows[0][1].as_float8(), -2.5);
  r = Run("retrieve (T.x) where T.f < -1.0");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryTest, PaperStyleUfilePathLiteral) {
  // §6.1 verbatim: append EMP (name = "Joe", picture = "/usr/joe").
  // The simulated UNIX FS has a flat namespace, so the path is simply a
  // name containing slashes.
  Run("create large type picfile (input = none, output = none, "
      "storage = u-file)");
  Run("create EMP (name = text, picture = picfile)");
  Run("append EMP (name = \"Joe\", picture = \"/usr/joe\")");
  ASSERT_OK(db_.ufs().Lookup("/usr/joe").status());
  // The user "then opens the large object designator and executes a
  // collection of write operations".
  QueryResult r = Run("retrieve (EMP.picture) where EMP.name = \"Joe\"");
  Oid pic = r.rows[0][0].as_lo().oid;
  Run("retrieve (lo_write(" + std::to_string(pic) + ", 0, \"JPEGJPEG\"))");
  r = Run("retrieve (lo_read(EMP.picture, 0, 4)) "
          "where EMP.name = \"Joe\"");
  EXPECT_EQ(r.rows[0][0].as_text(), "JPEG");
}

TEST_F(QueryTest, RectValuesRoundTripThroughClasses) {
  Run("create SHAPES (name = text, bounds = rect)");
  Run("append SHAPES (name = \"box\", bounds = \"1,2,30,40\"::rect)");
  QueryResult r = Run("retrieve (SHAPES.bounds) "
                      "where SHAPES.name = \"box\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_rect(), (RectValue{1, 2, 30, 40}));
}

TEST_F(QueryTest, ClipErrorPaths) {
  Run("create large type image (input = none, output = none, "
      "storage = f-chunk)");
  // Not an image (too short for the header).
  QueryResult created = Run("retrieve (img = lo_create(\"f-chunk\"))");
  Oid img = created.rows[0][0].as_oid();
  EXPECT_FALSE(session_->Run("retrieve (clip(\"" + std::to_string(img) +
                             "\"::image, \"0,0,5,5\"::rect))")
                   .ok());
  // Rectangle outside the image.
  {
    Transaction* txn = backend_->Begin();
    auto lo = db_.large_objects().Instantiate(txn, img).value();
    Bytes image(8 + 4 * 4);
    EncodeFixed32(image.data(), 4);
    EncodeFixed32(image.data() + 4, 4);
    ASSERT_OK(lo->Write(txn, 0, Slice(image)));
    ASSERT_OK(backend_->Commit().status());
  }
  EXPECT_FALSE(session_->Run("retrieve (clip(\"" + std::to_string(img) +
                             "\"::image, \"10,10,5,5\"::rect))")
                   .ok());
}

TEST_F(QueryTest, Aggregates) {
  Run("create EMP (name = text, age = int4, salary = float8)");
  Run("append EMP (name = \"a\", age = 30, salary = 1000.0)");
  Run("append EMP (name = \"b\", age = 40, salary = 2000.0)");
  Run("append EMP (name = \"c\", age = 50, salary = 4000.0)");
  QueryResult r = Run(
      "retrieve (n = count(EMP.name), total = sum(EMP.age), "
      "lo = min(EMP.age), hi = max(EMP.age), mean = avg(EMP.salary))");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int4(), 3);
  EXPECT_EQ(r.rows[0][1].as_int4(), 120);
  EXPECT_EQ(r.rows[0][2].as_int4(), 30);
  EXPECT_EQ(r.rows[0][3].as_int4(), 50);
  EXPECT_DOUBLE_EQ(r.rows[0][4].as_float8(), 7000.0 / 3);
  // With a qualification.
  r = Run("retrieve (count(EMP.name)) where EMP.age > 35");
  EXPECT_EQ(r.rows[0][0].as_int4(), 2);
  // Over an empty match set.
  r = Run("retrieve (count(EMP.name), sum(EMP.age)) where EMP.age > 99");
  EXPECT_EQ(r.rows[0][0].as_int4(), 0);
  EXPECT_EQ(r.rows[0][1].as_int4(), 0);
  // min/max on text.
  r = Run("retrieve (min(EMP.name), max(EMP.name))");
  EXPECT_EQ(r.rows[0][0].as_text(), "a");
  EXPECT_EQ(r.rows[0][1].as_text(), "c");
  // Mixing aggregates and plain targets is rejected.
  EXPECT_TRUE(session_->Run("retrieve (EMP.name, count(EMP.age))")
                  .status()
                  .IsNotSupported());
}

TEST_F(QueryTest, RetrieveInto) {
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"young\", age = 20)");
  Run("append EMP (name = \"old\", age = 70)");
  Run("retrieve into SENIORS (who = EMP.name, EMP.age) "
      "where EMP.age > 60");
  QueryResult r = Run("retrieve (SENIORS.who, SENIORS.age)");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "old");
  EXPECT_EQ(r.rows[0][1].as_int4(), 70);
  // Aggregate into.
  Run("retrieve into STATS (headcount = count(EMP.name))");
  r = Run("retrieve (STATS.headcount)");
  EXPECT_EQ(r.rows[0][0].as_int4(), 2);
  // Errors: duplicate target class, empty result.
  EXPECT_TRUE(session_->Run("retrieve into SENIORS (EMP.name)")
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(session_->Run("retrieve into EMPTY (EMP.name) "
                            "where EMP.age > 999")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(QueryTest, CommentsAreIgnored) {
  Run("create T (x = int4) -- trailing comment");
  Run("-- leading comment\nappend T (x = 1)");
  QueryResult r = Run("retrieve (T.x) -- the answer");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryTest, DefineIndexParsesAndExecutes) {
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"Joe\", age = 30)");
  Run("append EMP (name = \"Sam\", age = 40)");
  // Back-fills from existing rows (affected = rows indexed).
  QueryResult r = Run("define index emp_name on EMP (name)");
  EXPECT_EQ(r.affected, 2u);
  Run("define index emp_age on EMP (age)");
  // Index-assisted equality scans return exactly the right rows.
  r = Run("retrieve (EMP.age) where EMP.name = \"Joe\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int4(), 30);
  r = Run("retrieve (EMP.name) where EMP.age = 40");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "Sam");
  // No match.
  r = Run("retrieve (EMP.name) where EMP.age = 99");
  EXPECT_TRUE(r.rows.empty());
  // Errors.
  EXPECT_TRUE(session_->Run("define index emp_name on EMP (age)")
                  .status()
                  .IsAlreadyExists());
  EXPECT_FALSE(session_->Run("define index x on EMP (nofield)").ok());
  EXPECT_FALSE(session_->Run("define index y on NOPE (name)").ok());
}

TEST_F(QueryTest, IndexMaintainedAcrossMutations) {
  Run("create EMP (name = text, age = int4)");
  Run("define index emp_name on EMP (name)");
  Run("append EMP (name = \"Ann\", age = 1)");
  Run("append EMP (name = \"Bob\", age = 2)");
  QueryResult r = Run("retrieve (EMP.age) where EMP.name = \"Ann\"");
  ASSERT_EQ(r.rows.size(), 1u);
  // Replace moves the row to a new version: the index must find it.
  Run("replace EMP (age = 11) where EMP.name = \"Ann\"");
  r = Run("retrieve (EMP.age) where EMP.name = \"Ann\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_int4(), 11);
  // Rename through the indexed field itself.
  Run("replace EMP (name = \"Anne\") where EMP.name = \"Ann\"");
  r = Run("retrieve (EMP.age) where EMP.name = \"Anne\"");
  ASSERT_EQ(r.rows.size(), 1u);
  r = Run("retrieve (EMP.age) where EMP.name = \"Ann\"");
  EXPECT_TRUE(r.rows.empty());  // stale entries filtered by the recheck
  // Delete: index entries dangle but visibility hides the row.
  Run("delete EMP where EMP.name = \"Bob\"");
  r = Run("retrieve (EMP.age) where EMP.name = \"Bob\"");
  EXPECT_TRUE(r.rows.empty());
  // Mixed conjunction still works through the index.
  r = Run("retrieve (EMP.name) where EMP.name = \"Anne\" and EMP.age > 5");
  ASSERT_EQ(r.rows.size(), 1u);
  // remove index: queries fall back to sequential scans.
  Run("remove index emp_name");
  r = Run("retrieve (EMP.age) where EMP.name = \"Anne\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_TRUE(session_->Run("remove index emp_name").status().IsNotFound());
}

TEST_F(QueryTest, IndexRangeScans) {
  Run("create EMP (name = text, age = int4)");
  for (int age = 1; age <= 50; ++age) {
    Run("append EMP (name = \"p" + std::to_string(age) + "\", age = " +
        std::to_string(age) + ")");
  }
  Run("define index emp_age on EMP (age)");
  // Bounded ranges.
  QueryResult r = Run("retrieve (count(EMP.age)) "
                      "where EMP.age >= 10 and EMP.age <= 19");
  EXPECT_EQ(r.rows[0][0].as_int4(), 10);
  r = Run("retrieve (count(EMP.age)) where EMP.age > 10 and EMP.age < 19");
  EXPECT_EQ(r.rows[0][0].as_int4(), 8);
  // One-sided ranges.
  r = Run("retrieve (count(EMP.age)) where EMP.age > 45");
  EXPECT_EQ(r.rows[0][0].as_int4(), 5);
  r = Run("retrieve (count(EMP.age)) where EMP.age <= 3");
  EXPECT_EQ(r.rows[0][0].as_int4(), 3);
  // Flipped operand order.
  r = Run("retrieve (count(EMP.age)) where 48 < EMP.age");
  EXPECT_EQ(r.rows[0][0].as_int4(), 2);
  // A bound that does not take the field's type would encode in float8
  // order: the index is not used with it.
  r = Run("retrieve (count(EMP.age)) where EMP.age >= 47.5");
  EXPECT_EQ(r.rows[0][0].as_int4(), 3);
  // Range + extra conjunct rechecked on fetch.
  r = Run("retrieve (EMP.name) where EMP.age > 40 and EMP.name = \"p42\"");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "p42");
  // Text range through the (truncating) prefix encoding.
  Run("define index emp_name on EMP (name)");
  r = Run("retrieve (count(EMP.name)) "
          "where EMP.name >= \"p10\" and EMP.name <= \"p19\"");
  EXPECT_EQ(r.rows[0][0].as_int4(), 10);
}

TEST_F(QueryTest, IndexOnLargeObjectField) {
  // §3: "it precludes indexing BLOB values" is the drawback of untyped
  // BLOBs; with large ADTs inside the DBMS, indexing the field works.
  Run("create large type image (input = none, output = none, "
      "storage = f-chunk)");
  Run("create EMP (name = text, picture = image)");
  Run("append EMP (name = \"Mike\", picture = lo_create(\"f-chunk\"))");
  Run("define index emp_pic on EMP (picture)");
  QueryResult r = Run("retrieve (EMP.picture) where EMP.name = \"Mike\"");
  Oid pic = r.rows[0][0].as_lo().oid;
  r = Run("retrieve (EMP.name) where EMP.picture = " +
          std::to_string(pic));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "Mike");
}

TEST_F(QueryTest, IndexSurvivesAbortCorrectly) {
  Run("create T (k = int4)");
  Run("define index t_k on T (k)");
  Run("append T (k = 1)");
  // Aborted append: the index has a dangling entry, but the row is
  // invisible — the recheck must hide it.
  {
    Transaction* txn = backend_->Begin();
    ASSERT_OK(session_->Run(txn, "append T (k = 2)").status());
    ASSERT_OK(backend_->Abort());
  }
  QueryResult r = Run("retrieve (T.k) where T.k = 2");
  EXPECT_TRUE(r.rows.empty());
  r = Run("retrieve (T.k) where T.k = 1");
  EXPECT_EQ(r.rows.size(), 1u);
}

TEST_F(QueryTest, IndexRangeSeesASelfUpdatedRowOnce) {
  // A replace of a row appended by the same transaction rewrites the tuple
  // in place, so the index holds entries for both ages at one address. The
  // entry for the old age is stale and must not return the row again.
  Run("create EMP (name = text, age = int4)");
  Run("define index emp_age on EMP (age)");
  QueryResult r = Run(
      "append EMP (name = \"Ann\", age = 10); "
      "replace EMP (age = 20) where EMP.name = \"Ann\"; "
      "retrieve (EMP.name, EMP.age) where EMP.age >= 10 and EMP.age <= 20");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][1].as_int4(), 20);
  r = Run("retrieve (count(EMP.age)) where EMP.age >= 10 and EMP.age <= 20");
  EXPECT_EQ(r.rows[0][0].as_int4(), 1);
  r = Run("retrieve (EMP.name) where EMP.age = 10");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(QueryTest, DestroyRemovesTheClassIndexes) {
  Run("create EMP (name = text, age = int4)");
  Run("define index emp_age on EMP (age)");
  Run("append EMP (name = \"Old\", age = 10)");
  CommitTime before = db_.Now();
  Run("destroy EMP");
  // A re-created class starts without indexes: the old index's entries
  // point into the old heap.
  Run("create EMP (name = text, age = int4)");
  Run("append EMP (name = \"New\", age = 10)");
  const std::string range =
      "retrieve (EMP.name) where EMP.age >= 5 and EMP.age <= 10";
  QueryResult r = Run(range);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "New");
  // The index name is free again.
  Run("define index emp_age on EMP (age)");
  r = Run(range);
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "New");
  // Time travel still sees the old class through its old index.
  r = Run("retrieve (EMP.name) where EMP.age = 10 as of " +
          std::to_string(before));
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "Old");
}

// Drives an indexed class (IX: indexes on the int4 `age` and the text
// `name`) and its unindexed twin (SQ) through the same random statements:
// multi-statement appends, replaces of indexed and unindexed fields (in
// the appending transaction too, so tuples are rewritten in place),
// deletes, and aborted transactions. After every step, equality and range
// retrieves must return the twin's rows as a multiset. Replay a failure
// with PGLO_TEST_SEED=<seed>.
TEST_F(QueryTest, IndexedAnswersEqualScannedAnswers) {
  const uint64_t seed = pglo::testing::TestSeed();
  SCOPED_TRACE("replay with PGLO_TEST_SEED=" + std::to_string(seed));
  Random rng(seed);
  const char* kNames[] = {"ann",        "bob",        "cy",  "prefix12_a",
                          "prefix12_b", "prefix12_c", "zed"};
  auto name = [&] {
    return std::string("\"") + kNames[rng.Uniform(std::size(kNames))] + "\"";
  };
  auto age = [&] { return std::to_string(rng.Uniform(10)); };
  // `{C}` stands for the class name.
  auto instantiate = [](std::string tmpl, const std::string& cls) {
    for (size_t at; (at = tmpl.find("{C}")) != std::string::npos;) {
      tmpl.replace(at, 3, cls);
    }
    return tmpl;
  };
  auto both = [&](const std::string& tmpl) {
    return instantiate(tmpl, "IX") + "; " + instantiate(tmpl, "SQ");
  };
  for (const char* cls : {"IX", "SQ"}) {
    Run(std::string("create ") + cls +
        " (name = text, age = int4, note = text)");
  }
  Run("define index ix_age on IX (age)");
  Run("define index ix_name on IX (name)");

  auto random_qual = [&]() -> std::string {
    switch (rng.Uniform(4)) {
      case 0:
        return "{C}.age = " + age();
      case 1:
        return "{C}.name = " + name();
      case 2:
        return "{C}.age >= " + age() + " and {C}.age <= " + age();
      default:
        return "{C}.name > " + name() + " and {C}.age < " + age();
    }
  };
  auto random_statement = [&]() -> std::string {
    switch (rng.Uniform(7)) {
      case 0:
      case 1: {
        // An append, sometimes leaving the indexed fields null.
        std::string fields = "note = \"n" + age() + "\"";
        if (rng.Uniform(8) != 0) fields += ", age = " + age();
        if (rng.Uniform(8) != 0) fields += ", name = " + name();
        return "append {C} (" + fields + ")";
      }
      case 2:
        return "replace {C} (age = " + age() + ") where " + random_qual();
      case 3:  // null + 1 has no operator: skip null ages first
        return "replace {C} (age = {C}.age + 1) where {C}.age >= 0 and " +
               random_qual();
      case 4:
        return "replace {C} (name = " + name() + ") where " + random_qual();
      case 5:
        return "replace {C} (note = \"r" + age() + "\") where " +
               random_qual();
      default:
        return "delete {C} where " + random_qual();
    }
  };

  auto rows_of = [&](Transaction* txn, const std::string& text) {
    Result<QueryResult> r = session_->Run(txn, text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    std::vector<std::string> rows;
    if (!r.ok()) return rows;
    Result<std::string> rendered = r.value().ToString(session_->types());
    EXPECT_TRUE(rendered.ok());
    std::string table = rendered.ok() ? rendered.value() : "";
    for (size_t begin = 0, end; begin < table.size(); begin = end + 1) {
      end = table.find('\n', begin);
      if (end == std::string::npos) end = table.size();
      rows.push_back(table.substr(begin, end - begin));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  // Every probe, run on both classes within `txn`, must agree.
  auto check = [&](Transaction* txn, const std::string& when) {
    const std::string target = "retrieve ({C}.name, {C}.age, {C}.note)";
    std::vector<std::string> probes = {
        target,
        target + " where {C}.age = " + age(),
        target + " where {C}.age >= " + age() + " and {C}.age <= " + age(),
        target + " where {C}.age > " + age() + " and {C}.age < " + age(),
        target + " where {C}.age > " + age(),
        target + " where {C}.name = " + name(),
        target + " where {C}.name >= " + name() + " and {C}.name <= " +
            name(),
        target + " where {C}.name < " + name(),
        "retrieve (count({C}.note)) where {C}.age >= " + age() +
            " and {C}.age <= " + age(),
    };
    for (const std::string& probe : probes) {
      EXPECT_EQ(rows_of(txn, instantiate(probe, "IX")),
                rows_of(txn, instantiate(probe, "SQ")))
          << when << ": " << probe;
    }
  };

  for (int step = 0; step < 60 && !HasFailure(); ++step) {
    Transaction* txn = backend_->Begin();
    std::string text;
    for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
      if (!text.empty()) text += "; ";
      text += both(random_statement());
    }
    const std::string when = "step " + std::to_string(step) + " (" + text + ")";
    Result<QueryResult> ran = session_->Run(txn, text);
    ASSERT_TRUE(ran.ok()) << when << ": " << ran.status().ToString();
    check(txn, when + ", in its transaction");
    if (rng.Uniform(5) == 0) {
      ASSERT_OK(backend_->Abort());
    } else {
      ASSERT_OK(backend_->Commit().status());
    }
    txn = backend_->Begin();
    check(txn, when + ", after it ended");
    ASSERT_OK(backend_->Abort());
  }
}

TEST_F(QueryTest, LoImportExportRoundTrip) {
  // Stage a file in the simulated UNIX file system.
  {
    auto ino = db_.ufs().Create("source.dat");
    ASSERT_OK(ino.status());
    Bytes data(100'000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 7);
    }
    ASSERT_OK(db_.ufs().WriteAt(ino.value(), 0, Slice(data)));
  }
  QueryResult r = Run("retrieve (obj = lo_import(\"source.dat\"))");
  Oid oid = r.rows[0][0].as_oid();
  r = Run("retrieve (lo_size(" + std::to_string(oid) + "))");
  EXPECT_EQ(r.rows[0][0].as_int4(), 100'000);
  r = Run("retrieve (lo_export(" + std::to_string(oid) +
          ", \"copy.dat\"))");
  EXPECT_EQ(r.rows[0][0].as_int4(), 100'000);
  // Byte-compare the exported file against the source.
  ASSERT_OK_AND_ASSIGN(uint32_t src, db_.ufs().Lookup("source.dat"));
  ASSERT_OK_AND_ASSIGN(uint32_t dst, db_.ufs().Lookup("copy.dat"));
  Bytes a(100'000), b(100'000);
  ASSERT_OK(db_.ufs().ReadAt(src, 0, a.size(), a.data()).status());
  ASSERT_OK(db_.ufs().ReadAt(dst, 0, b.size(), b.data()).status());
  EXPECT_EQ(a, b);
  // Import into a specific storage kind.
  r = Run("retrieve (lo_import(\"source.dat\", \"v-segment\"))");
  EXPECT_TRUE(r.rows[0][0].is_oid());
}

TEST_F(QueryTest, AsOfClauseTimeTravel) {
  Run("create EMP (name = text)");
  Run("append EMP (name = \"founder\")");
  CommitTime epoch = db_.Now();
  Run("delete EMP where EMP.name = \"founder\"");
  Run("append EMP (name = \"successor\")");
  // Historical query, pure language level.
  QueryResult then =
      Run("retrieve (EMP.name) as of " + std::to_string(epoch));
  ASSERT_EQ(then.rows.size(), 1u);
  EXPECT_EQ(then.rows[0][0].as_text(), "founder");
  // And with a qualification.
  then = Run("retrieve (EMP.name) where EMP.name = \"founder\" as of " +
             std::to_string(epoch));
  EXPECT_EQ(then.rows.size(), 1u);
  // Current view unaffected.
  QueryResult now = Run("retrieve (EMP.name)");
  ASSERT_EQ(now.rows.size(), 1u);
  EXPECT_EQ(now.rows[0][0].as_text(), "successor");
  // Tick 0 predates the class itself: even the catalog row is invisible,
  // so the class "does not exist yet" — correct time-travel semantics.
  EXPECT_TRUE(
      session_->Run("retrieve (EMP.name) as of 0").status().IsNotFound());
}

TEST_F(QueryTest, LoFunctionsSeeTimeTravelSnapshots) {
  // §6.3's time travel composes with §3's in-database functions: lo_read
  // under an `as of` retrieve returns the object's historical bytes.
  QueryResult created = Run("retrieve (obj = lo_create(\"f-chunk\"))");
  Oid oid = created.rows[0][0].as_oid();
  Run("retrieve (lo_write(" + std::to_string(oid) + ", 0, \"version-A\"))");
  CommitTime epoch = db_.Now();
  Run("retrieve (lo_write(" + std::to_string(oid) + ", 0, \"version-B\"))");

  QueryResult now = Run("retrieve (lo_read(" + std::to_string(oid) +
                        ", 0, 9))");
  EXPECT_EQ(now.rows[0][0].as_text(), "version-B");
  QueryResult then = Run("retrieve (lo_read(" + std::to_string(oid) +
                         ", 0, 9)) as of " + std::to_string(epoch));
  EXPECT_EQ(then.rows[0][0].as_text(), "version-A");
  // Writing through a historical snapshot is refused.
  EXPECT_FALSE(session_->Run("retrieve (lo_write(" + std::to_string(oid) +
                             ", 0, \"X\")) as of " + std::to_string(epoch))
                   .ok());
}

TEST_F(QueryTest, AsOfParseErrors) {
  EXPECT_FALSE(Parser::Parse("retrieve (x) as of").ok());
  EXPECT_FALSE(Parser::Parse("retrieve (x) as 5").ok());
  EXPECT_FALSE(Parser::Parse("retrieve (x) as of banana").ok());
}

TEST_F(QueryTest, ClassOnDifferentStorageManagers) {
  Run("create M (x = int4) storage = \"main-memory\"");
  Run("append M (x = 5)");
  QueryResult result = Run("retrieve (M.x)");
  EXPECT_EQ(result.rows[0][0].as_int4(), 5);
  Run("create W (x = int4) storage = \"worm\"");
  Run("append W (x = 9)");
  result = Run("retrieve (W.x)");
  EXPECT_EQ(result.rows[0][0].as_int4(), 9);
}

TEST_F(QueryTest, ErrorsSurfaceCleanly) {
  EXPECT_TRUE(session_->Run("retrieve (NOPE.x)").status().IsNotFound());
  Run("create T (x = int4)");
  EXPECT_FALSE(session_->Run("append T (y = 1)").ok());          // no field
  EXPECT_FALSE(session_->Run("append T (x = \"abc\")").ok());    // bad type
  EXPECT_FALSE(session_->Run("create T (x = int4)").ok());       // duplicate
  EXPECT_FALSE(session_->Run("retrieve (f_missing(1))").ok());   // no func
  ASSERT_OK(session_->Run("append T (x = 1)").status());
  // A non-boolean qual, whichever statement carries it.
  EXPECT_TRUE(session_->Run("retrieve (T.x) where T.x").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(session_->Run("replace T (x = 2) where T.x").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      session_->Run("delete T where T.x").status().IsInvalidArgument());
}

TEST_F(QueryTest, FailedStatementRollsBackWholeQuery) {
  Run("create T (x = int4)");
  // Second statement fails; the first append must roll back with it.
  EXPECT_FALSE(
      session_->Run("append T (x = 1); append T (x = \"bogus\")").ok());
  QueryResult result = Run("retrieve (T.x)");
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(QueryTest, MultiClassQueryRejected) {
  Run("create A (x = int4)");
  Run("create B (y = int4)");
  EXPECT_TRUE(session_->Run("retrieve (A.x, B.y)").status().IsNotSupported());
}

TEST_F(QueryTest, ResultRendering) {
  Run("create T (name = text, n = int4)");
  Run("append T (name = \"row\", n = 7)");
  QueryResult result = Run("retrieve (T.name, T.n)");
  ASSERT_OK_AND_ASSIGN(std::string text,
                       result.ToString(session_->types()));
  EXPECT_NE(text.find("name | n"), std::string::npos);
  EXPECT_NE(text.find("row | 7"), std::string::npos);
}

}  // namespace
}  // namespace pglo

// PgloServer battery (DESIGN.md §16): full LO and Inversion lifecycles
// over loopback, typed engine errors surviving the wire, protocol
// violations closing the connection, admission-control rejection and
// recovery, N-thread append/read/abort storms (the TSan target), clean
// shutdown with in-flight transactions, and the socket-kill fault
// injection — a peer that vanishes mid-transaction must leave an aborted
// transaction, a freed activity slot, and a ticked
// server.txns.disconnect_aborts counter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/random.h"
#include "db/database.h"
#include "inversion/inversion_fs.h"
#include "server/net.h"
#include "server/server.h"
#include "server/wire.h"
#include "tests/test_util.h"

namespace pglo {
namespace {

using pglo::testing::TempDir;
using pglo::testing::TestSeed;

uint64_t CounterValue(const StatsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Polls `pred` for up to `timeout_ms`; server-side slot teardown runs on
/// the connection thread, so tests wait for it rather than assuming it.
bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 5000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions server_options = {}) {
    DatabaseOptions options;
    options.dir = dir_.Sub("db");
    options.buffer_pool_frames = 512;
    options.charge_devices = false;
    ASSERT_OK(db_.Open(options));
    inv_ = std::make_unique<InversionFs>(db_.context(), &db_.large_objects());
    {
      auto session = db_.Connect();
      session->Begin();
      ASSERT_OK(inv_->Bootstrap(session->txn()));
      ASSERT_OK(session->Commit().status());
    }
    server_ = std::make_unique<PgloServer>(&db_, inv_.get(), server_options);
    ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    inv_.reset();
    if (db_.is_open()) EXPECT_OK(db_.Close());
  }

  Result<std::unique_ptr<PgloClient>> Connect(
      const std::string& name = "test") {
    return PgloClient::Connect("127.0.0.1", server_->port(), name);
  }

  /// Embedded-side ground truth: is `oid` visible to a fresh transaction?
  bool LoExists(uint64_t oid) {
    auto session = db_.Connect();
    session->Begin();
    auto exists = session->ExistsLo(oid);
    EXPECT_OK(session->Abort());
    return exists.ok() && exists.value();
  }

  TempDir dir_;
  Database db_;
  std::unique_ptr<InversionFs> inv_;
  std::unique_ptr<PgloServer> server_;
};

TEST_F(ServerTest, LoLifecycleOverTheWire) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("lifecycle"));
  EXPECT_GT(client->backend_id(), 0u);

  ASSERT_OK(client->Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t oid, client->CreateLo());
  ASSERT_OK_AND_ASSIGN(uint32_t h, client->OpenLo(oid, /*writable=*/true));
  ASSERT_OK(client->Write(h, Slice("hello large ")));
  ASSERT_OK(client->Write(h, Slice("object world")));
  ASSERT_OK_AND_ASSIGN(uint64_t pos, client->Seek(h, 0, Whence::kSet));
  EXPECT_EQ(pos, 0u);
  ASSERT_OK_AND_ASSIGN(Bytes all, client->Read(h, 1 << 20));
  EXPECT_EQ(Slice(all).ToString(), "hello large object world");
  ASSERT_OK_AND_ASSIGN(pos, client->Seek(h, -5, Whence::kEnd));
  EXPECT_EQ(pos, 19u);
  ASSERT_OK_AND_ASSIGN(Bytes tail, client->Read(h, 5));
  EXPECT_EQ(Slice(tail).ToString(), "world");
  ASSERT_OK(client->CloseLo(h));
  ASSERT_OK_AND_ASSIGN(uint64_t tick, client->Commit());
  EXPECT_GT(tick, 0u);

  // Committed data is visible to a second transaction, and handles from
  // the first one are dead.
  ASSERT_OK(client->Begin());
  EXPECT_TRUE(client->Read(h, 4).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(uint32_t h2, client->OpenLo(oid, /*writable=*/false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, client->Seek(h2, 0, Whence::kEnd));
  EXPECT_EQ(size, 24u);
  ASSERT_OK(client->Abort());
  ASSERT_OK(client->Bye());

  EXPECT_TRUE(LoExists(oid));
  StatsSnapshot s = db_.Stats();
  EXPECT_GE(CounterValue(s, "server.conns.accepted"), 1u);
  EXPECT_GT(CounterValue(s, "server.frames.in"), 10u);
  EXPECT_GT(CounterValue(s, "server.frames.out"), 10u);
}

TEST_F(ServerTest, InversionPathsOverTheWire) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("inversion"));

  ASSERT_OK(client->Begin());
  ASSERT_OK(client->InvMkdir("/docs").status());
  ASSERT_OK(client->InvCreate("/docs/a.txt").status());
  ASSERT_OK_AND_ASSIGN(uint32_t h,
                       client->InvOpen("/docs/a.txt", /*writable=*/true));
  ASSERT_OK(client->Write(h, Slice("inversion payload")));
  ASSERT_OK(client->CloseLo(h));
  ASSERT_OK(client->Commit().status());

  ASSERT_OK(client->Begin());
  ASSERT_OK_AND_ASSIGN(h, client->InvOpen("/docs/a.txt", /*writable=*/false));
  ASSERT_OK_AND_ASSIGN(Bytes content, client->Read(h, 1 << 20));
  EXPECT_EQ(Slice(content).ToString(), "inversion payload");
  ASSERT_OK(client->CloseLo(h));
  ASSERT_OK(client->InvRemove("/docs/a.txt"));
  ASSERT_OK(client->Commit().status());

  ASSERT_OK(client->Begin());
  EXPECT_TRUE(client->InvOpen("/docs/a.txt", false).status().IsNotFound());
  ASSERT_OK(client->Abort());
  ASSERT_OK(client->Bye());
}

// An Inversion file opens under the same checks as a large object: a
// time-travel transaction cannot open one for write.
TEST_F(ServerTest, TimeTravelInversionOpenForWriteIsRefused) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("inv-as-of"));
  LoSpec spec;
  spec.kind = StorageKind::kPostgresFile;
  ASSERT_OK(client->Begin());
  ASSERT_OK(client->InvCreate("/frozen", spec).status());
  ASSERT_OK_AND_ASSIGN(uint32_t h,
                       client->InvOpen("/frozen", /*writable=*/true));
  ASSERT_OK(client->Write(h, Slice("ORIGINAL")));
  ASSERT_OK_AND_ASSIGN(uint64_t tick, client->Commit());

  ASSERT_OK(client->BeginAsOf(tick));
  Result<uint32_t> opened = client->InvOpen("/frozen", /*writable=*/true);
  EXPECT_TRUE(opened.status().IsPermissionDenied())
      << opened.status().ToString();
  if (opened.ok()) (void)client->Write(opened.value(), Slice("CLOBBERD"));
  ASSERT_OK(client->Abort());

  ASSERT_OK(client->Begin());
  ASSERT_OK_AND_ASSIGN(h, client->InvOpen("/frozen", /*writable=*/false));
  ASSERT_OK_AND_ASSIGN(Bytes content, client->Read(h, 64));
  EXPECT_EQ(Slice(content).ToString(), "ORIGINAL");
  ASSERT_OK(client->Abort());
  ASSERT_OK(client->Bye());
}

TEST_F(ServerTest, TypedEngineErrorsSurviveTheWire) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("errors"));

  // Transaction-state errors.
  EXPECT_TRUE(client->Commit().status().IsInvalidArgument());
  EXPECT_TRUE(client->Abort().IsInvalidArgument());
  EXPECT_TRUE(client->CreateLo().status().IsInvalidArgument());

  ASSERT_OK(client->Begin());
  // Double BEGIN is a protocol-level misuse but a recoverable one.
  EXPECT_TRUE(client->Begin().IsInvalidArgument());
  // Unknown oid / unknown handle.
  EXPECT_TRUE(client->OpenLo(0xDEAD, true).status().IsNotFound());
  EXPECT_TRUE(client->Read(12345, 16).status().IsNotFound());
  // Writing through a read-only descriptor.
  ASSERT_OK_AND_ASSIGN(uint64_t oid, client->CreateLo());
  ASSERT_OK_AND_ASSIGN(uint64_t tick, client->Commit());
  ASSERT_OK(client->BeginAsOf(tick));
  ASSERT_OK_AND_ASSIGN(uint32_t h, client->OpenLo(oid, /*writable=*/false));
  EXPECT_TRUE(client->Write(h, Slice("nope")).IsPermissionDenied());
  ASSERT_OK(client->Abort());

  // After all that abuse the connection is still perfectly usable.
  ASSERT_OK(client->Begin());
  ASSERT_OK(client->Commit().status());
  ASSERT_OK(client->Bye());
}

TEST_F(ServerTest, DuplicateHelloClosesTheConnection) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("dup-hello"));
  ASSERT_OK_AND_ASSIGN(wire::Frame reply,
                       client->RoundTrip(wire::MakeHello("again")));
  ASSERT_EQ(reply.type, wire::FrameType::kError);
  EXPECT_TRUE(wire::ErrorOf(reply).IsInvalidArgument());
  // The violation is fatal: the server hangs up after the error reply.
  EXPECT_TRUE(WaitUntil([&] { return !client->RoundTrip(wire::MakeBegin()).ok(); }));
}

TEST_F(ServerTest, GarbageFramingClosesTheConnectionWithoutCrashing) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto client, Connect("garbage"));
  Random rng(TestSeed());
  Bytes garbage = rng.RandomBytes(64);
  EncodeFixed32(garbage.data(), 32);  // plausible length, garbage type
  ASSERT_OK(client->SendRaw(Slice(garbage)));
  // The server answers with a typed framing error (or the connection is
  // already gone); either way the next request cannot succeed and the
  // server is still alive to serve a fresh client.
  EXPECT_TRUE(WaitUntil([&] { return !client->RoundTrip(wire::MakeBegin()).ok(); }));
  ASSERT_OK_AND_ASSIGN(auto fresh, Connect("after-garbage"));
  ASSERT_OK(fresh->Begin());
  ASSERT_OK(fresh->Commit().status());
  ASSERT_OK(fresh->Bye());
}

TEST_F(ServerTest, AdmissionControlRejectsAtTheLimitAndRecovers) {
  ServerOptions options;
  options.max_connections = 2;
  StartServer(options);

  ASSERT_OK_AND_ASSIGN(auto c1, Connect("seat-1"));
  ASSERT_OK_AND_ASSIGN(auto c2, Connect("seat-2"));

  // Inspect the raw REJECT frame: it must carry the server's load figures.
  {
    ASSERT_OK_AND_ASSIGN(int fd, net::Dial("127.0.0.1", server_->port()));
    net::FrameConn raw(fd);
    ASSERT_OK(raw.Send(wire::MakeHello("seat-3")));
    ASSERT_OK_AND_ASSIGN(wire::Frame reply, raw.Recv());
    ASSERT_EQ(reply.type, wire::FrameType::kReject);
    EXPECT_EQ(reply.u32_a, 2u);  // active
    EXPECT_EQ(reply.u32_b, 2u);  // max
    EXPECT_FALSE(reply.text.empty());
  }
  // The client library surfaces the rejection as kResourceExhausted.
  EXPECT_TRUE(Connect("seat-4").status().IsResourceExhausted());
  EXPECT_GE(CounterValue(db_.Stats(), "server.conns.rejected"), 2u);

  // Freeing a seat readmits: Bye, then poll until the server reaps it.
  ASSERT_OK(c1->Bye());
  c1.reset();
  std::unique_ptr<PgloClient> c5;
  EXPECT_TRUE(WaitUntil([&] {
    auto attempt = Connect("seat-5");
    if (!attempt.ok()) return false;
    c5 = std::move(attempt).value();
    return true;
  }));
  ASSERT_OK(c5->Begin());
  ASSERT_OK(c5->Commit().status());
}

TEST_F(ServerTest, ConcurrentAppendReadAbortStorm) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kTxns = 16;
  std::vector<uint64_t> oids(kThreads);
  std::vector<uint64_t> committed_bytes(kThreads, 0);
  std::vector<std::string> failures(kThreads);

  // Each worker owns one object and one connection; gtest assertions are
  // not thread-safe, so workers record failures and the main thread
  // asserts after the join.
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto fail = [&](const std::string& what, const Status& s) {
        if (failures[t].empty()) failures[t] = what + ": " + s.ToString();
      };
      auto attempt = PgloClient::Connect("127.0.0.1", server_->port(),
                                         "storm-" + std::to_string(t));
      if (!attempt.ok()) return fail("connect", attempt.status());
      auto client = std::move(attempt).value();
      Random rng(TestSeed() + 1000 + static_cast<uint64_t>(t));

      {
        Status s = client->Begin();
        if (!s.ok()) return fail("begin", s);
        auto oid = client->CreateLo();
        if (!oid.ok()) return fail("create", oid.status());
        oids[t] = oid.value();
        auto tick = client->Commit();
        if (!tick.ok()) return fail("commit", tick.status());
      }

      for (int i = 0; i < kTxns; ++i) {
        Status s = client->Begin();
        if (!s.ok()) return fail("begin", s);
        bool reader = i % 4 == 3;
        auto h = client->OpenLo(oids[t], /*writable=*/!reader);
        if (!h.ok()) return fail("open", h.status());
        if (reader) {
          auto data = client->Read(h.value(), 1 << 20);
          if (!data.ok()) return fail("read", data.status());
          if (data.value().size() != committed_bytes[t]) {
            return fail("read size mismatch",
                        Status::Internal(
                            std::to_string(data.value().size()) + " vs " +
                            std::to_string(committed_bytes[t])));
          }
          s = client->Abort();
          if (!s.ok()) return fail("abort", s);
          continue;
        }
        auto end = client->Seek(h.value(), 0, Whence::kEnd);
        if (!end.ok()) return fail("seek", end.status());
        Bytes chunk = rng.RandomBytes(64 + rng.Uniform(512));
        s = client->Write(h.value(), Slice(chunk));
        if (!s.ok()) return fail("write", s);
        if (i % 3 == 2) {
          s = client->Abort();  // the append must vanish
          if (!s.ok()) return fail("abort", s);
        } else {
          auto tick = client->Commit();
          if (!tick.ok()) return fail("commit", tick.status());
          committed_bytes[t] += chunk.size();
        }
      }
      (void)client->Bye();
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "worker " << t;
  }

  // All remote backends drained their activity slots on disconnect.
  EXPECT_TRUE(WaitUntil([&] { return db_.activity().live_count() == 0; }));

  // Embedded ground truth: every object's size is exactly the bytes its
  // owner committed — aborted appends left no trace.
  auto session = db_.Connect();
  session->Begin();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_OK_AND_ASSIGN(LoDescriptor * desc,
                         session->OpenLo(oids[t], /*writable=*/false));
    ASSERT_OK_AND_ASSIGN(uint64_t size, desc->Size());
    EXPECT_EQ(size, committed_bytes[t]) << "object of worker " << t;
  }
  ASSERT_OK(session->Abort());
}

TEST_F(ServerTest, RemoteBackendsAppearInTheActivityTable) {
  StartServer();
  std::vector<std::unique_ptr<PgloClient>> clients;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto c, Connect("activity-" + std::to_string(i)));
    ASSERT_OK(c->Begin());
    clients.push_back(std::move(c));
  }
  ASSERT_TRUE(WaitUntil([&] { return db_.activity().live_count() >= 3; }));
  auto rows = db_.activity().Snapshot();
  for (const auto& c : clients) {
    bool found = false;
    for (const auto& row : rows) {
      if (row.backend_id == c->backend_id()) {
        found = true;
        EXPECT_TRUE(row.in_txn);
        EXPECT_GE(row.begun, 1u);
      }
    }
    EXPECT_TRUE(found) << "backend " << c->backend_id()
                       << " missing from activity snapshot";
  }
  for (auto& c : clients) {
    ASSERT_OK(c->Commit().status());
    ASSERT_OK(c->Bye());
  }
  clients.clear();
  EXPECT_TRUE(WaitUntil([&] { return db_.activity().live_count() == 0; }));
}

TEST_F(ServerTest, CleanShutdownWithInFlightSessions) {
  StartServer();
  std::vector<std::unique_ptr<PgloClient>> clients;
  std::vector<uint64_t> oids;
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto c, Connect("inflight-" + std::to_string(i)));
    ASSERT_OK(c->Begin());
    ASSERT_OK_AND_ASSIGN(uint64_t oid, c->CreateLo());
    ASSERT_OK_AND_ASSIGN(uint32_t h, c->OpenLo(oid, true));
    ASSERT_OK(c->Write(h, Slice("uncommitted")));
    oids.push_back(oid);
    clients.push_back(std::move(c));
  }

  server_->Stop();  // must return with all connection threads joined

  EXPECT_EQ(server_->active_connections(), 0u);
  EXPECT_EQ(db_.activity().live_count(), 0u);
  StatsSnapshot s = db_.Stats();
  EXPECT_GE(CounterValue(s, "server.txns.disconnect_aborts"), 3u);
  EXPECT_GE(CounterValue(s, "server.conns.closed"), 3u);
  // The in-flight transactions rolled back: nothing they created survives.
  for (uint64_t oid : oids) EXPECT_FALSE(LoExists(oid));
  // Clients see a dead connection.
  for (auto& c : clients) EXPECT_FALSE(c->Commit().ok());
}

TEST_F(ServerTest, SocketKillMidTransactionAbortsAndFreesTheSlot) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(auto victim, Connect("victim"));
  ASSERT_OK(victim->Begin());
  ASSERT_OK_AND_ASSIGN(uint64_t oid, victim->CreateLo());
  ASSERT_OK_AND_ASSIGN(uint32_t h, victim->OpenLo(oid, true));
  ASSERT_OK(victim->Write(h, Slice("doomed bytes")));
  ASSERT_TRUE(WaitUntil([&] { return db_.activity().live_count() == 1; }));

  victim->Kill();  // half-close + close, no BYE: the peer just vanishes

  // The server must notice, abort the transaction, and free the slot.
  EXPECT_TRUE(WaitUntil([&] { return db_.activity().live_count() == 0; }));
  EXPECT_TRUE(WaitUntil([&] {
    return CounterValue(db_.Stats(), "server.txns.disconnect_aborts") >= 1;
  }));
  EXPECT_FALSE(LoExists(oid));
  EXPECT_TRUE(WaitUntil([&] { return server_->active_connections() == 0; }));

  // And the server keeps serving.
  ASSERT_OK_AND_ASSIGN(auto next, Connect("survivor"));
  ASSERT_OK(next->Begin());
  ASSERT_OK(next->Commit().status());
  ASSERT_OK(next->Bye());
}

TEST_F(ServerTest, StopIsIdempotentAndServerRestartsOnSameDatabase) {
  StartServer();
  uint16_t first_port = server_->port();
  {
    ASSERT_OK_AND_ASSIGN(auto c, Connect("before-stop"));
    ASSERT_OK(c->Begin());
    ASSERT_OK(c->CreateLo().status());
    ASSERT_OK(c->Commit().status());
    ASSERT_OK(c->Bye());
  }
  server_->Stop();
  server_->Stop();  // idempotent
  EXPECT_TRUE(Connect("after-stop").status().IsIOError());

  // A new server over the same (still open) database serves fresh clients.
  server_ = std::make_unique<PgloServer>(&db_, inv_.get(), ServerOptions{});
  ASSERT_OK(server_->Start());
  EXPECT_NE(server_->port(), 0u);
  (void)first_port;
  ASSERT_OK_AND_ASSIGN(auto c, Connect("second-life"));
  ASSERT_OK(c->Begin());
  ASSERT_OK(c->Commit().status());
  ASSERT_OK(c->Bye());
}

}  // namespace
}  // namespace pglo

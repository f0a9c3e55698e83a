#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <unordered_map>
#include <utility>

#include "common/logging.h"

namespace pglo {

using wire::Frame;
using wire::FrameType;

struct PgloServer::ConnState {
  std::unique_ptr<Session> session;
  /// Open descriptors by wire handle id — large objects and Inversion
  /// files alike. The LoManager owns them and frees them when the
  /// transaction ends; DropHandlesOnTxnEnd then drops the ids without
  /// dereferencing them.
  std::unordered_map<uint32_t, LoDescriptor*> handles;
  uint32_t next_handle = 1;

  /// Files an opened descriptor under the next handle id.
  Frame AddHandle(const Result<LoDescriptor*>& desc) {
    if (!desc.ok()) return wire::MakeError(desc.status());
    uint32_t h = next_handle++;
    handles[h] = desc.value();
    return wire::MakeHandleOp(FrameType::kHandleReply, h);
  }

  /// The descriptor behind handle id `h`; null if none is open.
  LoDescriptor* FindHandle(uint32_t h) const {
    auto it = handles.find(h);
    return it == handles.end() ? nullptr : it->second;
  }

  void DropHandlesOnTxnEnd() {
    handles.clear();
    next_handle = 1;
  }
};

PgloServer::PgloServer(Database* db, InversionFs* inv, ServerOptions options)
    : db_(db), inv_(inv), options_(std::move(options)) {
  StatsRegistry* stats = db_->stats_registry();
  if (stats != nullptr) {
    c_accepted_ = stats->counter("server.conns.accepted");
    c_rejected_ = stats->counter("server.conns.rejected");
    c_closed_ = stats->counter("server.conns.closed");
    c_frames_in_ = stats->counter("server.frames.in");
    c_frames_out_ = stats->counter("server.frames.out");
    c_disconnect_aborts_ = stats->counter("server.txns.disconnect_aborts");
  }
}

PgloServer::~PgloServer() { Stop(); }

Status PgloServer::Start() {
  if (listen_fd_ >= 0) return Status::InvalidArgument("server already started");
  PGLO_ASSIGN_OR_RETURN(
      listen_fd_, net::Listen(options_.host, options_.port, options_.backlog));
  PGLO_ASSIGN_OR_RETURN(port_, net::LocalPort(listen_fd_));
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread(&PgloServer::AcceptLoop, this);
  return Status::OK();
}

void PgloServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown() unblocks the accept thread but only reads the fd; the
  // close and the fd reset wait until after the join so the accept thread
  // never observes them.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  // Unblock and join every live connection. Shutdown (not Close) here:
  // the connection thread owns the fd and closes it on exit.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& conn : conns_) conn->io->Shutdown();
  }
  std::vector<std::unique_ptr<Conn>> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    drained.swap(conns_);
  }
  for (auto& conn : drained) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void PgloServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void PgloServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == EINTR) continue;
      return;  // listener gone
    }
    ReapFinished();
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    uint32_t active = active_.load(std::memory_order_relaxed);
    if (active >= options_.max_connections) {
      // Admission control: one typed backpressure frame, then the door.
      // The engine never sees the connection; the client sees WHY (load
      // and limit) instead of a silent reset, and can back off. Counted
      // before the frame goes out, so a client that reads its REJECT also
      // sees the counter that recorded it.
      StatInc(c_rejected_);
      net::FrameConn io(fd);
      Status s = io.Send(wire::MakeReject(
          active, options_.max_connections,
          "server at max_connections; retry later"));
      (void)s;  // a vanished rejected client changes nothing
      continue;
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    StatInc(c_accepted_);
    auto conn = std::make_unique<Conn>();
    conn->io = std::make_unique<net::FrameConn>(fd);
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&PgloServer::Serve, this, raw);
  }
}

void PgloServer::Serve(Conn* conn) {
  net::FrameConn& io = *conn->io;
  ConnState st;

  // Handshake: the first frame must be HELLO with our protocol version.
  Result<Frame> first = io.Recv();
  bool handshook = false;
  if (first.ok()) {
    StatInc(c_frames_in_);
    const Frame& f = first.value();
    if (f.type != FrameType::kHello) {
      (void)io.Send(wire::MakeError(Status::InvalidArgument(
          "expected HELLO, got " + std::string(FrameTypeName(f.type)))));
    } else if (f.u32_a != wire::kProtocolVersion) {
      (void)io.Send(wire::MakeError(Status::NotSupported(
          "protocol version " + std::to_string(f.u32_a) +
          " unsupported (server speaks " +
          std::to_string(wire::kProtocolVersion) + ")")));
    } else {
      // Connect here, on the serving thread: the Session constructor
      // publishes this thread's WaitSlot, so the remote backend's waits
      // land in its own activity row.
      st.session = db_->Connect();
      Status s = io.Send(wire::MakeHelloOk(st.session->backend_id()));
      if (s.ok()) {
        StatInc(c_frames_out_);
        handshook = true;
      }
    }
  }

  while (handshook) {
    Result<Frame> req = io.Recv();
    if (!req.ok()) {
      if (!req.status().IsIOError()) {
        // Framing violation: name it for the peer, then hang up — frame
        // boundaries are unrecoverable after garbage.
        (void)io.Send(wire::MakeError(req.status()));
      }
      break;
    }
    StatInc(c_frames_in_);
    if (req.value().type == FrameType::kBye) {
      if (io.Send(Frame{}).ok()) StatInc(c_frames_out_);  // kOk
      break;
    }
    bool fatal = false;
    Frame reply = Dispatch(st, req.value(), &fatal);
    if (!io.Send(reply).ok()) break;
    StatInc(c_frames_out_);
    if (fatal) break;
  }

  // Backend exit: roll back an in-flight transaction (counted — this is
  // the dropped-connection path the fault tests assert on), then free the
  // session and with it the activity slot.
  if (st.session != nullptr && st.session->in_txn()) {
    StatInc(c_disconnect_aborts_);
    Status s = st.session->Abort();
    if (!s.ok()) {
      PGLO_LOG(Error) << "abort on disconnect failed: " << s.ToString();
    }
    st.DropHandlesOnTxnEnd();
  }
  st.session.reset();
  io.Close();
  StatInc(c_closed_);
  active_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

namespace {

/// Reply for an engine Status: kOk or a typed kError carrying the code.
Frame StatusReply(const Status& s) {
  return s.ok() ? Frame{} : wire::MakeError(s);
}

Frame ErrorReply(const Status& s) { return wire::MakeError(s); }

Status NoTxn() {
  return Status::InvalidArgument("no transaction in progress (BEGIN first)");
}

Status NoHandle() { return Status::NotFound("no such handle"); }

}  // namespace

Frame PgloServer::Dispatch(ConnState& st, const Frame& req, bool* fatal) {
  *fatal = false;
  Session& session = *st.session;
  switch (req.type) {
    case FrameType::kHello: {
      *fatal = true;
      return ErrorReply(Status::InvalidArgument("duplicate HELLO"));
    }

    case FrameType::kBegin: {
      if (session.in_txn()) {
        return ErrorReply(Status::InvalidArgument(
            "transaction already in progress (one per session)"));
      }
      if (req.u64 != 0) {
        session.BeginAsOf(req.u64);
      } else {
        session.Begin();
      }
      return Frame{};
    }

    case FrameType::kCommit: {
      if (!session.in_txn()) return ErrorReply(NoTxn());
      Result<CommitTime> tick = session.Commit();
      if (!tick.ok()) return ErrorReply(tick.status());  // txn still open
      st.DropHandlesOnTxnEnd();
      return wire::MakeU64Reply(tick.value());
    }

    case FrameType::kAbort: {
      if (!session.in_txn()) return ErrorReply(NoTxn());
      Status s = session.Abort();
      st.DropHandlesOnTxnEnd();  // consumed even on a failed abort record
      return StatusReply(s);
    }

    case FrameType::kLoCreate: {
      Result<Oid> oid = session.CreateLo(wire::SpecOf(req));
      if (!oid.ok()) return ErrorReply(oid.status());
      return wire::MakeU64Reply(oid.value());
    }

    case FrameType::kLoOpen:
      return st.AddHandle(session.OpenLo(req.u64, req.u8_a != 0));

    case FrameType::kLoRead: {
      LoDescriptor* desc = st.FindHandle(req.u32_a);
      if (desc == nullptr) return ErrorReply(NoHandle());
      Result<Bytes> data = desc->Read(req.u32_b);
      if (!data.ok()) return ErrorReply(data.status());
      return wire::MakeDataReply(std::move(data).value());
    }

    case FrameType::kLoWrite: {
      LoDescriptor* desc = st.FindHandle(req.u32_a);
      if (desc == nullptr) return ErrorReply(NoHandle());
      return StatusReply(desc->Write(Slice(req.data)));
    }

    case FrameType::kLoSeek: {
      LoDescriptor* desc = st.FindHandle(req.u32_a);
      if (desc == nullptr) return ErrorReply(NoHandle());
      Result<uint64_t> pos =
          desc->Seek(req.i64, static_cast<Whence>(req.u8_a));
      if (!pos.ok()) return ErrorReply(pos.status());
      return wire::MakeU64Reply(pos.value());
    }

    case FrameType::kLoClose: {
      LoDescriptor* desc = st.FindHandle(req.u32_a);
      if (desc == nullptr) return ErrorReply(NoHandle());
      st.handles.erase(req.u32_a);
      return StatusReply(session.CloseLo(desc));
    }

    case FrameType::kInvCreate:
    case FrameType::kInvOpen:
    case FrameType::kInvMkdir:
    case FrameType::kInvRemove: {
      if (inv_ == nullptr) {
        return ErrorReply(
            Status::NotSupported("server runs without Inversion"));
      }
      if (!session.in_txn()) return ErrorReply(NoTxn());
      Transaction* txn = session.txn();
      if (req.type == FrameType::kInvCreate) {
        std::string path(req.data.begin(), req.data.end());
        Result<FileId> id = inv_->Create(txn, path, wire::SpecOf(req));
        if (!id.ok()) return ErrorReply(id.status());
        return wire::MakeU64Reply(id.value());
      }
      if (req.type == FrameType::kInvOpen) {
        return st.AddHandle(inv_->Open(txn, req.text, req.u8_a != 0));
      }
      if (req.type == FrameType::kInvMkdir) {
        Result<FileId> id = inv_->MkDir(txn, req.text);
        if (!id.ok()) return ErrorReply(id.status());
        return wire::MakeU64Reply(id.value());
      }
      return StatusReply(inv_->Remove(txn, req.text));
    }

    case FrameType::kBye:
    case FrameType::kHelloOk:
    case FrameType::kReject:
    case FrameType::kOk:
    case FrameType::kU64Reply:
    case FrameType::kHandleReply:
    case FrameType::kDataReply:
    case FrameType::kError:
      break;
  }
  *fatal = true;
  return ErrorReply(Status::InvalidArgument(
      std::string(FrameTypeName(req.type)) + " is not a request"));
}

}  // namespace pglo
